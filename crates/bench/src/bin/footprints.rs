//! Footprints: per-workload committed-transaction footprint percentiles on
//! InfCap (the raw material behind Fig. 6). Useful when tuning inputs.
//!
//! ```sh
//! cargo run --release -p hintm-bench --bin footprints
//! ```

use hintm::{Cell, HtmKind};
use hintm_types::stats_util::{frac_above, percentile};

fn main() {
    println!(
        "{:<10} {:>6} {:>5} {:>5} {:>5} {:>5} {:>9}",
        "workload", "txs", "p50", "p90", "p99", "max", ">64blk"
    );
    for name in hintm::WORKLOAD_NAMES {
        let r = Cell::new(name)
            .htm(HtmKind::InfCap)
            .record_tx_sizes(true)
            .seed(42)
            .run()
            .unwrap();
        let s: Vec<u64> = r.stats.tx_sizes_all.iter().map(|v| *v as u64).collect();
        println!(
            "{:<10} {:>6} {:>5} {:>5} {:>5} {:>5} {:>8.2}%",
            name,
            s.len(),
            percentile(&s, 50.0),
            percentile(&s, 90.0),
            percentile(&s, 99.0),
            s.iter().max().copied().unwrap_or(0),
            100.0 * frac_above(&s, 64),
        );
    }
}
