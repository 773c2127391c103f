//! Run-level statistics.

use hintm_cache::CacheStats;
use hintm_types::{AbortKind, Cycles};
use hintm_vm::VmStats;

/// Everything measured in one simulation run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Wall-clock of the run: the maximum hardware-thread clock.
    pub total_cycles: Cycles,
    /// Sum of all hardware-thread clocks (aggregate work).
    pub sum_cycles: Cycles,
    /// Committed hardware transactions.
    pub commits: u64,
    /// Sections completed under the fallback lock.
    pub fallback_commits: u64,
    /// Aborts by kind (indexed as [`AbortKind::ALL`]).
    pub aborts: [u64; 5],
    /// Cycles of transactional work discarded, by abort kind.
    pub wasted_cycles: [u64; 5],
    /// Aggregate cycles attributable to page-mode aborts: shootdown
    /// initiator + slave costs plus the transactional work they discarded
    /// (Fig. 4b's secondary axis).
    pub page_mode_cycles: u64,
    /// In-TX access classification counts from *committed* attempts:
    /// `[static-safe, dynamic-safe, unsafe]` (Fig. 5).
    pub access_breakdown: [u64; 3],
    /// Per committed TX: distinct blocks touched (baseline view).
    pub tx_sizes_all: Vec<u32>,
    /// Per committed TX: blocks touched by non-statically-safe accesses.
    pub tx_sizes_nonstatic: Vec<u32>,
    /// Per committed TX: blocks touched by fully-unsafe accesses.
    pub tx_sizes_unsafe: Vec<u32>,
    /// VM subsystem stats.
    pub vm: VmStats,
    /// Cache hierarchy stats.
    pub cache: CacheStats,
    /// Safe/total touched pages at end of run (Fig. 1).
    pub safe_pages: (u64, u64),
    /// Sharing-profiler metrics, when enabled:
    /// `(safe block frac, safe page frac, safe tx-read frac @page, @block)`.
    pub sharing: Option<(f64, f64, f64, f64)>,
    /// Engine steps executed (diagnostics).
    pub steps: u64,
}

impl RunStats {
    /// Total aborts across kinds.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Aborts of one kind.
    pub fn aborts_of(&self, kind: AbortKind) -> u64 {
        self.aborts[kind_index(kind)]
    }

    /// Fraction of aggregate cycles spent on page-mode abort actions.
    pub fn page_mode_fraction(&self) -> f64 {
        if self.sum_cycles.raw() == 0 {
            0.0
        } else {
            self.page_mode_cycles as f64 / self.sum_cycles.raw() as f64
        }
    }

    /// Speedup of this run relative to `baseline` (baseline_time / time).
    pub fn speedup_vs(&self, baseline: &RunStats) -> f64 {
        if self.total_cycles.raw() == 0 {
            0.0
        } else {
            baseline.total_cycles.raw() as f64 / self.total_cycles.raw() as f64
        }
    }

    /// Relative reduction of `kind` aborts vs `baseline` (1.0 = all gone;
    /// 0.0 = unchanged; 0 baseline aborts ⇒ 0.0).
    pub fn abort_reduction_vs(&self, baseline: &RunStats, kind: AbortKind) -> f64 {
        let base = baseline.aborts_of(kind);
        if base == 0 {
            0.0
        } else {
            1.0 - (self.aborts_of(kind) as f64 / base as f64).min(1.0)
        }
    }
}

fn kind_index(kind: AbortKind) -> usize {
    AbortKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("kind in ALL")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let a = RunStats {
            total_cycles: Cycles(1000),
            sum_cycles: Cycles(4000),
            page_mode_cycles: 400,
            aborts: [10, 4, 0, 2, 1],
            ..RunStats::default()
        };
        let b = RunStats {
            total_cycles: Cycles(500),
            aborts: [10, 1, 0, 2, 1],
            ..RunStats::default()
        };

        assert_eq!(a.total_aborts(), 17);
        assert_eq!(a.aborts_of(AbortKind::Capacity), 4);
        assert!((a.page_mode_fraction() - 0.1).abs() < 1e-12);
        assert!((b.speedup_vs(&a) - 2.0).abs() < 1e-12);
        assert!((b.abort_reduction_vs(&a, AbortKind::Capacity) - 0.75).abs() < 1e-12);
        assert_eq!(b.abort_reduction_vs(&a, AbortKind::FalseConflict), 0.0);
    }

    #[test]
    fn zero_guards() {
        let z = RunStats::default();
        assert_eq!(z.page_mode_fraction(), 0.0);
        assert_eq!(z.speedup_vs(&z), 0.0);
    }
}
