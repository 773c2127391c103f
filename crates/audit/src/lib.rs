//! Soundness tooling for the HinTM reproduction: an IR verifier, a lint
//! framework, and a dynamic sharing oracle.
//!
//! The paper's whole mechanism (§IV-A) rests on one invariant: an access
//! marked *safe* skips HTM conflict tracking, so it must never race. The
//! static classifier is supposed to guarantee that; this crate *proves* it
//! per workload, from two independent directions:
//!
//! 1. **Static** — [`verify()`] checks structural well-formedness of the IR
//!    module (def-before-use, call arity, site density, reachability, TX
//!    pairing) and [`lint`] runs pluggable checks over the classification
//!    pipeline's artifacts against the *declared* safe-site set.
//! 2. **Dynamic** — [`oracle`] replays the workload in the simulator under
//!    an access observer and checks every declared safe site against the
//!    inter-thread sharing the run actually exhibits, reporting unsound
//!    hints (safe site observed racing) and missed hints (provably private
//!    site left unhinted).
//!
//! A third, orthogonal static direction is capacity: [`analyze`] bounds
//! every transaction's cache-block footprint with the
//! [`hintm_ir::footprint()`] interval analysis, gives per-HTM-model
//! fits/may-overflow/must-overflow verdicts, and diffs the declared
//! safe-site set against what the classifier can re-infer.
//!
//! [`audit_workload`] runs both sides for one workload;
//! [`analyze_workload`] runs the static capacity analysis. `hintm audit`
//! and `hintm analyze` are the CLI front ends.
//!
//! # Examples
//!
//! ```
//! use hintm_audit::{audit_workload, Scale};
//!
//! let report = audit_workload("kmeans", Scale::Sim, 42).unwrap();
//! assert!(report.verify_errors.is_empty());
//! assert!(report.unsound.is_empty(), "all shipped hints are sound");
//! ```

pub mod analyze;
pub mod lint;
pub mod oracle;
pub mod verify;

pub use analyze::{analyze_all, analyze_module, analyze_workload, AnalyzeReport, AnalyzeStats};
pub use lint::{default_lints, run_lints, Diagnostic, Lint, LintCtx, Severity};
pub use oracle::{OracleRecorder, OracleReport, UnsoundHint};
pub use verify::{verify, VerifyError};

pub use hintm_workloads::Scale;

use hintm_ir::{
    classify, footprint, points_to, replicate, sharing, verify_fixpoint, ClassifyStats, Module,
    ModuleFootprint, PointsTo, Replication, Sharing,
};
use hintm_sim::{SimConfig, Simulator, Workload};
use hintm_types::SiteId;
use std::collections::BTreeSet;

/// The classification pipeline's artifacts, re-derived for auditing.
///
/// Shared by [`audit_module`] and [`analyze::analyze_module`]: both run
/// the same verifier + pipeline + lint stack, differing only in what they
/// do afterwards (dynamic oracle run vs. footprint reporting).
struct Pipeline {
    verify_errors: Vec<VerifyError>,
    stats: ClassifyStats,
    inferred: BTreeSet<SiteId>,
    fp: ModuleFootprint,
    diagnostics: Vec<Diagnostic>,
}

/// Runs verifier, classification, footprint analysis, and the default
/// lints over `(module, declared_safe)`.
fn run_pipeline(module: &Module, declared_safe: &BTreeSet<SiteId>) -> Pipeline {
    let mut verify_errors = verify::verify(module);

    let classification = classify(module);
    let inferred: BTreeSet<SiteId> = classification.safe_sites().iter().copied().collect();

    // Re-run the pipeline stages to expose their artifacts to the lints.
    let pt0: PointsTo = points_to(module);
    let fp = footprint(module, &pt0);
    let sh0: Sharing = sharing(module, &pt0);
    let (module2, rep): (Module, Replication) = replicate(module, &pt0, &sh0);
    let pt = points_to(&module2);
    let sh = sharing(&module2, &pt);
    if !verify_fixpoint(&module2, &pt) {
        verify_errors.push(VerifyError {
            func: None,
            message: "points-to solution is not a fixpoint".to_string(),
        });
    }

    let ctx = LintCtx {
        original: module,
        module: &module2,
        pt: &pt,
        sh: &sh,
        rep: &rep,
        safe: declared_safe,
        fp: &fp,
        inferred: &inferred,
    };
    let diagnostics = run_lints(&ctx, &default_lints());

    Pipeline {
        verify_errors,
        stats: classification.stats(),
        inferred,
        fp,
        diagnostics,
    }
}

/// The combined audit verdict for one workload.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Workload name.
    pub workload: String,
    /// Structural IR violations (includes a fixpoint failure, if any).
    pub verify_errors: Vec<VerifyError>,
    /// Classification statistics for the workload's module.
    pub stats: ClassifyStats,
    /// Lint findings, deterministically ordered.
    pub diagnostics: Vec<Diagnostic>,
    /// The declared safe set differs from what `classify` produces today
    /// (a stale or hand-edited hint table).
    pub hint_mismatch: bool,
    /// Distinct hint-carrying sites that executed in the observed run.
    pub sites_executed: usize,
    /// Distinct raw addresses the observed run touched.
    pub addrs_touched: usize,
    /// Declared-safe sites observed racing. Must be empty.
    pub unsound: Vec<UnsoundHint>,
    /// Unhinted sites that were provably private at runtime
    /// (informational: static analysis left performance on the table).
    pub missed: Vec<SiteId>,
}

impl AuditReport {
    /// Number of `Error`-severity lint findings.
    pub fn lint_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of `Warning`-severity lint findings.
    pub fn lint_warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// The audit passes when the IR verifies, no lint *errors* fired, the
    /// declared hints match the classifier, and the oracle saw no unsound
    /// hint. Warnings and missed hints are informational.
    pub fn passed(&self) -> bool {
        self.verify_errors.is_empty()
            && self.lint_errors() == 0
            && !self.hint_mismatch
            && self.unsound.is_empty()
    }
}

/// Audits one `(module, declared safe set, workload)` triple: verifier,
/// full pipeline re-analysis, lints, and a dynamically observed run.
///
/// The declared set is audited as-is — it is what the simulator trusts —
/// so a lying or stale set is caught even though `classify` would produce
/// a different one.
pub fn audit_module(
    name: &str,
    module: &Module,
    declared_safe: &BTreeSet<SiteId>,
    workload: &mut dyn Workload,
    seed: u64,
) -> AuditReport {
    let pipeline = run_pipeline(module, declared_safe);
    let hint_mismatch = *declared_safe != pipeline.inferred;

    // Dynamic side: observe one run and judge every executed site.
    let mut obs = OracleRecorder::new();
    Simulator::new(SimConfig::default()).run_with_sink(workload, seed, &mut obs);
    let oracle = obs.evaluate(declared_safe);

    AuditReport {
        workload: name.to_string(),
        verify_errors: pipeline.verify_errors,
        stats: pipeline.stats,
        diagnostics: pipeline.diagnostics,
        hint_mismatch,
        sites_executed: oracle.sites_executed,
        addrs_touched: oracle.addrs_touched,
        unsound: oracle.unsound,
        missed: oracle.missed,
    }
}

/// Audits one suite workload by name. Returns `None` for unknown names.
pub fn audit_workload(name: &str, scale: Scale, seed: u64) -> Option<AuditReport> {
    let module = hintm_workloads::ir_module(name, scale)?;
    let mut workload = hintm_workloads::by_name(name, scale)?;
    let declared: BTreeSet<SiteId> = workload.static_safe_sites().into_iter().collect();
    Some(audit_module(
        name,
        &module,
        &declared,
        workload.as_mut(),
        seed,
    ))
}
