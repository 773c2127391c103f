//! Acceptance sweep: every shipped workload must audit clean — verifier
//! silent, no lint errors, hint table in sync with the classifier, and
//! zero unsound hints observed by the dynamic oracle.

use hintm_audit::{audit_workload, AuditReport, Scale};
use hintm_workloads::WORKLOAD_NAMES;

/// Audits every workload in the suite, in the paper's reporting order.
fn audit_suite(seed: u64) -> Vec<AuditReport> {
    WORKLOAD_NAMES
        .iter()
        .filter_map(|name| audit_workload(name, Scale::Sim, seed))
        .collect()
}

#[test]
fn entire_suite_audits_clean() {
    let reports = audit_suite(42);
    assert_eq!(reports.len(), WORKLOAD_NAMES.len());
    for r in &reports {
        assert!(
            r.verify_errors.is_empty(),
            "{}: verifier errors {:?}",
            r.workload,
            r.verify_errors
        );
        assert_eq!(
            r.lint_errors(),
            0,
            "{}: lint errors {:?}",
            r.workload,
            r.diagnostics
        );
        assert!(!r.hint_mismatch, "{}: stale hint table", r.workload);
        assert!(
            r.unsound.is_empty(),
            "{}: unsound hints {:?}",
            r.workload,
            r.unsound
        );
        assert!(r.passed());
        assert!(
            r.sites_executed > 0,
            "{}: the observed run executed no hinted sites",
            r.workload
        );
    }
}

#[test]
fn audits_are_deterministic() {
    let a = audit_workload_digest(7);
    let b = audit_workload_digest(7);
    assert_eq!(a, b, "same seed must produce the same audit verdicts");
}

fn audit_workload_digest(seed: u64) -> Vec<(String, usize, usize, usize)> {
    audit_suite(seed)
        .into_iter()
        .map(|r| {
            (
                r.workload,
                r.sites_executed,
                r.unsound.len(),
                r.missed.len(),
            )
        })
        .collect()
}
