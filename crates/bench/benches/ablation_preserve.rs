//! §VI-B ablation — the "preserve" page-transition optimization on the
//! page-mode outlier, vacation: remote reads of `⟨private,rw⟩` pages
//! downgrade to `⟨shared,ro⟩` instead of shooting down, trading page-mode
//! aborts for continued safe reads.

use hintm::{AbortKind, Cell, HintMode, HtmKind, Scale};
use hintm_bench::{banner, pct, print_machine, x, SEED};

fn run(name: &str, htm: HtmKind, preserve: bool) -> hintm::RunReport {
    Cell::new(name)
        .htm(htm)
        .hint(HintMode::Full)
        .preserve(preserve)
        .scale(Scale::Sim)
        .seed(SEED)
        .run()
        .unwrap()
}

fn main() {
    banner(
        "Ablation (§VI-B): page-mode abort cost and the preserve optimization",
        "vacation (the outlier) and two controls, HinTM full, with preserve off/on",
    );
    print_machine();
    println!(
        "{:<10} {:<6} | {:>10} {:>10} {:>10} {:>9}",
        "workload", "htm", "pgm-aborts", "pgm-frac", "shootdowns", "speedup"
    );
    for name in ["vacation", "genome", "tpcc-no"] {
        for htm in [HtmKind::P8, HtmKind::L1Tm] {
            let off = run(name, htm, false);
            let on = run(name, htm, true);
            println!(
                "{:<10} {:<6} | {:>4} -> {:>3} {:>10} {:>10} {:>9}",
                name,
                htm.to_string(),
                off.stats.aborts_of(AbortKind::PageMode),
                on.stats.aborts_of(AbortKind::PageMode),
                format!(
                    "{} -> {}",
                    pct(off.page_mode_fraction()),
                    pct(on.page_mode_fraction())
                ),
                format!("{} -> {}", off.stats.vm.shootdowns, on.stats.vm.shootdowns),
                x(on.speedup_vs(&off)),
            );
        }
    }
    println!();
    println!(
        "paper shape: vacation combines the highest page-mode abort frequency and cost;\n\
         gentler transition handling recoups part of its InfCap headroom (§VI-B, §VI-D2)"
    );
}
