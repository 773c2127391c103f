//! Quickstart: run one STAMP workload on a POWER8-style HTM with and
//! without HinTM's safety hints, and print the paper's headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hintm::{AbortKind, Cell, HintMode, HtmKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", hintm::MachineConfig::default().table2_summary());
    println!();

    // Baseline: conventional P8 HTM (64-entry transactional buffer).
    let base = Cell::new("vacation").htm(HtmKind::P8).run()?;
    // HinTM: static compiler hints + dynamic page-level classification.
    let hinted = Cell::new("vacation")
        .htm(HtmKind::P8)
        .hint(HintMode::Full)
        .run()?;
    // The capacity-abort-free upper bound.
    let infcap = Cell::new("vacation").htm(HtmKind::InfCap).run()?;

    for r in [&base, &hinted, &infcap] {
        println!("{r}");
    }
    println!();
    println!(
        "capacity aborts : {} -> {} ({:.0}% eliminated)",
        base.stats.aborts_of(AbortKind::Capacity),
        hinted.stats.aborts_of(AbortKind::Capacity),
        100.0 * hinted.capacity_abort_reduction_vs(&base),
    );
    println!(
        "speedup         : {:.2}x with HinTM (InfCap bound: {:.2}x)",
        hinted.speedup_vs(&base),
        infcap.speedup_vs(&base),
    );
    println!(
        "page-mode cost  : {:.1}% of aggregate cycles ({} shootdowns)",
        100.0 * hinted.page_mode_fraction(),
        hinted.stats.vm.shootdowns,
    );
    Ok(())
}
