//! Fig. 5 — Memory-access breakdown within transactions: the fraction of
//! in-transaction accesses classified compiler-safe, runtime-safe, and
//! unsafe (collected with HinTM + preserve, as in the paper).

use hintm::{Cell, HintMode, HtmKind};
use hintm_bench::{banner, pct, print_machine, SEED};

/// The paper omits ssca2 and kmeans from Fig. 5 onward (§VI-C).
const SUBSET: [&str; 8] = [
    "bayes",
    "genome",
    "intruder",
    "labyrinth",
    "vacation",
    "yada",
    "tpcc-no",
    "tpcc-p",
];

fn main() {
    banner(
        "Figure 5: memory-access breakdown within transactions",
        "fractions of committed in-TX accesses: compiler-annotated safe / runtime-annotated safe / unsafe",
    );
    print_machine();
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "workload", "static-safe", "dyn-safe", "unsafe", "total-safe"
    );

    let mut totals = Vec::new();
    let mut statics = Vec::new();
    for name in SUBSET {
        let r = Cell::new(name)
            .htm(HtmKind::P8)
            .hint(HintMode::Full)
            .preserve(true)
            .seed(SEED)
            .run()
            .unwrap();
        let [st, dy, un] = r.stats.access_breakdown;
        let total = (st + dy + un).max(1) as f64;
        let fst = st as f64 / total;
        let fdy = dy as f64 / total;
        let fun = un as f64 / total;
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>12}",
            name,
            pct(fst),
            pct(fdy),
            pct(fun),
            pct(fst + fdy)
        );
        totals.push(fst + fdy);
        statics.push(fst);
    }
    println!(
        "{:<10} {:>12} {:>38}",
        "MEAN",
        pct(hintm_bench::mean(&statics)),
        pct(hintm_bench::mean(&totals))
    );
    println!();
    println!(
        "paper shape: ~50% of TX accesses safe on average, dominated by the dynamic\n\
         mechanism; labyrinth 95% total (44% static); static finds 0% for genome,\n\
         intruder, yada; ~18% of tpcc-no loads; 2-4% for bayes/vacation/tpcc-p"
    );
}
