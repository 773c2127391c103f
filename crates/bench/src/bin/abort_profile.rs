//! Abort profile: a quick per-workload census of the baseline P8 run —
//! transactions, fallbacks, and abort counts by kind. Useful when tuning
//! inputs or sanity-checking a change.
//!
//! ```sh
//! cargo run --release -p hintm-bench --bin abort_profile
//! ```

use hintm::{AbortKind, Cell, HtmKind};

fn main() {
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>12}",
        "workload", "txs", "fb", "cap", "conf", "fc", "lock", "cycles"
    );
    for name in hintm::WORKLOAD_NAMES {
        let r = Cell::new(name).htm(HtmKind::P8).seed(42).run().unwrap();
        println!(
            "{:<10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>12}",
            name,
            r.stats.commits + r.stats.fallback_commits,
            r.stats.fallback_commits,
            r.stats.aborts_of(AbortKind::Capacity),
            r.stats.aborts_of(AbortKind::Conflict),
            r.stats.aborts_of(AbortKind::FalseConflict),
            r.stats.aborts_of(AbortKind::FallbackLock),
            r.stats.total_cycles.raw(),
        );
    }
}
