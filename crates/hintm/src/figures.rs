//! The paper's evaluation, one row per table or figure.
//!
//! [`FIGURES`] declares each result once, the way [`AXES`](crate::AXES)
//! declares each sweep axis: a name, the [`Cell`]s it needs and a render
//! function that turns their reports into the printed table. `hintm
//! figures` runs the cells of every selected row as one cached batch
//! (see [`batch`]) and prints each render; `tests/figures.rs` pins every
//! render against a golden file. Absolute numbers come from this
//! simulator, not the authors' SESC testbed: the *shape* (who wins, by
//! roughly what factor, where the crossovers sit) is the reproduction
//! target, recorded side by side with the paper in EXPERIMENTS.md.
//!
//! Three rows need configurations a [`Cell`] cannot express: the Fig. 2
//! page walk drives a [`VmSystem`] directly, and the conflict-policy and
//! escape-encoding ablations run a [`Simulator`] on a modified machine or
//! workload for the half of their table that differs from a plain cell.

use crate::{
    by_name, capacity_runtime_fraction, AbortKind, Cell, HintMode, HtmKind, MachineConfig,
    RunReport, RunStats, Scale, SimConfig, Simulator, WORKLOAD_NAMES,
};
use hintm_sim::EscapeEncoded;
use hintm_types::stats_util::{frac_above, geomean, mean, percentile};
use hintm_types::{AccessKind, ConflictPolicy, CoreId, PageId, ThreadId};
use hintm_vm::VmSystem;
use std::collections::HashSet;
use std::fmt::Write;
use HintMode::{Dynamic, Full, Off, Static};
use HtmKind::{InfCap, L1Tm, LogTm, Rot, P8, P8S};

/// Looks up the report of one of a row's cells.
pub(crate) type Reports<'r> = dyn Fn(&Cell) -> &'r RunReport + 'r;

/// Renders a row's table from the reports of its cells.
pub(crate) type Render = fn(&Reports<'_>) -> String;

/// One table or figure of the evaluation.
#[derive(Clone, Copy, Debug)]
pub struct Figure {
    /// Row name (an EXPERIMENTS.md section refers to it).
    pub name: &'static str,
    /// The cells the render reads, at seed 42 unless the row is about
    /// seeds.
    pub cells: fn() -> Vec<Cell>,
    /// Renders the table from the reports of [`Figure::cells`].
    pub render: Render,
}

const fn row(name: &'static str, cells: fn() -> Vec<Cell>, render: Render) -> Figure {
    Figure {
        name,
        cells,
        render,
    }
}

/// Every table and figure, in EXPERIMENTS.md order.
pub const FIGURES: [Figure; 13] = [
    row("table1_hw", Vec::new, table1_hw),
    row("fig1_motivation", fig1_cells, fig1_motivation),
    row("fig2_states", Vec::new, fig2_states),
    row("fig4_p8", fig4_cells, fig4_p8),
    row("fig5_breakdown", fig5_cells, fig5_breakdown),
    row("fig6_cdf", fig6_cells, fig6_cdf),
    row("fig7_p8s", fig7_cells, fig7_p8s),
    row("fig8_l1tm", fig8_cells, fig8_l1tm),
    row("ablation_preserve", preserve_cells, ablation_preserve),
    row("ablation_policy", policy_cells, ablation_policy),
    row("ablation_escape", escape_cells, ablation_escape),
    row("beyond_baselines", beyond_cells, beyond_baselines),
    row("variance_check", variance_cells, variance_check),
];

/// The row called `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The cells of `figures` as one batch: duplicates (by [`Cell::key`])
/// dropped, first occurrence kept.
pub fn batch(figures: &[&Figure]) -> Vec<Cell> {
    let mut seen = HashSet::new();
    figures
        .iter()
        .flat_map(|f| (f.cells)())
        .filter(|c| seen.insert(c.key()))
        .collect()
}

/// The seed every single-seed row uses.
const SEED: u64 = 42;

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

/// `writeln!` into a `String`, which cannot fail.
macro_rules! out {
    ($s:expr) => {
        $s.push('\n')
    };
    ($s:expr, $($arg:tt)*) => {{
        let _ = writeln!($s, $($arg)*);
    }};
}

/// A row's title block.
fn banner(title: &str, detail: &str) -> String {
    let rule = "================================================================";
    format!("\n{rule}\n{title}\n{detail}\n{rule}\n")
}

/// Formats a fraction as a percentage.
fn pct(f: f64) -> String {
    format!("{:5.1}%", f * 100.0)
}

/// Formats a speedup.
fn x(f: f64) -> String {
    format!("{f:5.2}x")
}

/// A figure cell: `(workload, htm, hint)` at `scale` with the shared seed.
fn cell(workload: &str, htm: HtmKind, hint: HintMode, scale: Scale) -> Cell {
    Cell::new(workload)
        .htm(htm)
        .hint(hint)
        .scale(scale)
        .seed(SEED)
}

/// `runs(name)` for each of `names`, in order.
fn grid<const N: usize>(names: &[&str], runs: fn(&str) -> [Cell; N]) -> Vec<Cell> {
    names.iter().flat_map(|n| runs(n)).collect()
}

fn table1_hw(_: &Reports<'_>) -> String {
    let mut s = banner(
        "Table I: HinTM's required hardware modifications",
        "and where this repo implements them",
    );
    let cfg = MachineConfig::default();
    out!(
        s,
        "Core           | safety-flag bit on load/store instructions (safe load/store\n\
         \u{20}              | opcodes)                     -> hintm_types::SafetyHint,\n\
         \u{20}              |                                  hintm_ir::classify (producer)\n\
         TLB            | +2 bits per entry (ro, shared) and tid per PT entry\n\
         \u{20}              |                               -> hintm_vm::PageState / Tlb\n\
         HTM controller | skip tracking for hinted accesses\n\
         \u{20}              |                               -> hintm_htm::HtmThread::on_access\n"
    );
    out!(
        s,
        "Cost model (§V): minor fault {} cyc; TLB shootdown {} cyc initiator / {} cyc per slave",
        cfg.minor_fault_cost.raw(),
        cfg.shootdown_initiator_cost.raw(),
        cfg.shootdown_slave_cost.raw()
    );
    s
}

/// Fig. 1's runs of `name`: baseline P8, InfCap, and InfCap with the
/// sharing profiler.
fn fig1_runs(name: &str) -> [Cell; 3] {
    let inf = cell(name, InfCap, Off, Scale::Sim);
    [
        cell(name, P8, Off, Scale::Sim),
        inf.clone(),
        inf.profile_sharing(true),
    ]
}

fn fig1_cells() -> Vec<Cell> {
    grid(&WORKLOAD_NAMES, fig1_runs)
}

/// Fig. 1 — capacity-abort runtime (P8 vs InfCap gap), safe regions at
/// block and page granularity, and transactional reads of safe regions.
fn fig1_motivation(get: &Reports<'_>) -> String {
    let mut s = banner(
        "Figure 1: HTM capacity-abort cost and memory-access safety potential",
        "columns: %runtime on capacity aborts | safe regions (64B / 4KB) | safe TX reads (@4KB / @64B)",
    );
    out!(
        s,
        "workload     cap-time     safe-blk      safe-pg      safeRd@pg     safeRd@blk"
    );
    let mut cols = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for name in WORKLOAD_NAMES {
        let [base, inf, prof] = fig1_runs(name).map(|c| get(&c));
        let cap = capacity_runtime_fraction(base, inf);
        let (blk, pg, rd_pg, rd_blk) = prof.stats.sharing.expect("profiling on");
        out!(
            s,
            "{name:<10} {:>10} {:>12} {:>12} {:>14} {:>14}",
            pct(cap),
            pct(blk),
            pct(pg),
            pct(rd_pg),
            pct(rd_blk)
        );
        for (col, v) in cols.iter_mut().zip([cap, pg, rd_pg, rd_blk]) {
            col.push(v);
        }
    }
    let [cap, pg, rd_pg, rd_blk] = cols.map(|c| pct(mean(&c)));
    out!(
        s,
        "MEAN       {cap:>10} {:>12} {pg:>12} {rd_pg:>14} {rd_blk:>14}",
        ""
    );
    out!(s);
    out!(
        s,
        "paper shape: cap-time up to 89% (labyrinth), ~22% mean; safe pages ~62% mean;\n\
         safe TX reads ~40% @page, ~60% @block"
    );
    s
}

/// Fig. 2 — one page walked through its lifecycle by two threads, with
/// the classification verdict and cost of every step.
fn fig2_states(_: &Reports<'_>) -> String {
    let mut s = banner(
        "Figure 2: page state transitions under the dynamic classifier",
        "an executed lifecycle trace (default mode, then preserve mode)",
    );
    let (thread_x, thread_y) = ((CoreId(0), ThreadId(0)), (CoreId(1), ThreadId(1)));
    let steps = [
        ("X reads (first touch)", thread_x, AccessKind::Load),
        ("X writes", thread_x, AccessKind::Store),
        ("Y reads", thread_y, AccessKind::Load),
        ("Y writes", thread_y, AccessKind::Store),
        ("X reads again", thread_x, AccessKind::Load),
    ];
    for preserve in [false, true] {
        out!(s, "--- preserve = {preserve} ---");
        let mut vm = VmSystem::new(&MachineConfig::default(), preserve);
        let page = PageId::from_index(42);
        for (what, (core, tid), kind) in steps {
            let r = vm.access(core, tid, page, kind);
            out!(
                s,
                "  {:<24} -> {:<16} safe-load={:<5} cost={:>5} shootdown={}",
                what,
                vm.page_state(page)
                    .map(|s| s.to_string())
                    .unwrap_or_default(),
                r.safe_load,
                r.cost.raw(),
                r.shootdown
                    .map(|s| format!("{} slaves", s.slave_cores.len()))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        out!(s);
    }
    out!(
        s,
        "matches Fig. 2: reads of <private,*> (by the owner) and <shared,ro> are safe;\n\
         the single safe->unsafe transition costs a shootdown (6600 + 1450/slave cycles)"
    );
    s
}

/// Fig. 4's runs of `name`: the four hint modes on P8, and InfCap.
fn fig4_runs(name: &str) -> [Cell; 5] {
    [
        (P8, Off),
        (P8, Static),
        (P8, Dynamic),
        (P8, Full),
        (InfCap, Off),
    ]
    .map(|(htm, hint)| cell(name, htm, hint, Scale::Sim))
}

fn fig4_cells() -> Vec<Cell> {
    grid(&WORKLOAD_NAMES, fig4_runs)
}

/// Fig. 4 — (a) capacity-abort reduction for HinTM-st / HinTM-dyn /
/// HinTM vs P8; (b) speedup over baseline P8 (with the InfCap bound) and
/// the fraction of cycles spent on page-mode abort actions.
fn fig4_p8(get: &Reports<'_>) -> String {
    let mut s = banner(
        "Figure 4: capacity-abort reduction and speedup on the P8 HTM",
        "(a) capacity-abort reduction; (b) speedup vs baseline P8 + page-mode cost",
    );
    out!(
        s,
        "workload   |   red-st  red-dyn red-full |   sp-st  sp-dyn sp-full  sp-inf |   pgmode"
    );
    let mut sp = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut reds = [Vec::new(), Vec::new(), Vec::new()];
    for name in WORKLOAD_NAMES {
        let [base, st, dy, full, inf] = fig4_runs(name).map(|c| get(&c));
        let red = [st, dy, full].map(|r| r.capacity_abort_reduction_vs(base));
        let speed = [st, dy, full, inf].map(|r| r.speedup_vs(base));
        out!(
            s,
            "{name:<10} | {:>8} {:>8} {:>8} | {:>7} {:>7} {:>7} {:>7} | {:>8}",
            pct(red[0]),
            pct(red[1]),
            pct(red[2]),
            x(speed[0]),
            x(speed[1]),
            x(speed[2]),
            x(speed[3]),
            pct(full.page_mode_fraction()),
        );
        if base.stats.aborts_of(AbortKind::Capacity) > 0 {
            reds.iter_mut().zip(red).for_each(|(v, r)| v.push(r));
        }
        sp.iter_mut().zip(speed).for_each(|(v, r)| v.push(r));
    }
    let [r_st, r_dy, r_full] = reds.map(|v| pct(mean(&v)));
    let [st, dy, full, inf] = sp.map(|v| x(geomean(&v)));
    out!(
        s,
        "MEAN       | {r_st:>8} {r_dy:>8} {r_full:>8} | {st:>7} {dy:>7} {full:>7} {inf:>7} |"
    );
    out!(s);
    out!(
        s,
        "paper shape: HinTM removes ~64% of capacity aborts, 1.4x geomean speedup (up to\n\
         8.7x on labyrinth); HinTM-dyn ~61% / 1.34x; HinTM-st only helps labyrinth (~80%\n\
         reduction, ~3x) and vacation (~48%, 1.18x); InfCap bounds at 9.1x labyrinth, 1.6x vacation"
    );
    s
}

/// Fig. 5's run of `name`: full HinTM with preserve, as in the paper.
fn fig5_runs(name: &str) -> [Cell; 1] {
    [cell(name, P8, Full, Scale::Sim).preserve(true)]
}

fn fig5_cells() -> Vec<Cell> {
    grid(&SUBSET, fig5_runs)
}

/// Fig. 5 — the fraction of committed in-transaction accesses classified
/// compiler-safe, runtime-safe and unsafe.
fn fig5_breakdown(get: &Reports<'_>) -> String {
    let mut s = banner(
        "Figure 5: memory-access breakdown within transactions",
        "fractions of committed in-TX accesses: compiler-annotated safe / runtime-annotated safe / unsafe",
    );
    out!(
        s,
        "workload    static-safe     dyn-safe       unsafe   total-safe"
    );
    let mut totals = Vec::new();
    let mut statics = Vec::new();
    for name in SUBSET {
        let [r] = fig5_runs(name).map(|c| get(&c));
        let [st, dy, un] = r.stats.access_breakdown;
        let total = (st + dy + un).max(1) as f64;
        let [fst, fdy, fun] = [st, dy, un].map(|n| n as f64 / total);
        let (st, dy, un, safe) = (pct(fst), pct(fdy), pct(fun), pct(fst + fdy));
        out!(s, "{name:<10} {st:>12} {dy:>12} {un:>12} {safe:>12}");
        totals.push(fst + fdy);
        statics.push(fst);
    }
    let (st, safe) = (pct(mean(&statics)), pct(mean(&totals)));
    out!(s, "MEAN       {st:>12} {safe:>38}");
    out!(s);
    out!(
        s,
        "paper shape: ~50% of TX accesses safe on average, dominated by the dynamic\n\
         mechanism; labyrinth 95% total (44% static); static finds 0% for genome,\n\
         intruder, yada; ~18% of tpcc-no loads; 2-4% for bayes/vacation/tpcc-p"
    );
    s
}

/// P8's transactional buffer, in blocks: the CDF tail beyond it must
/// capacity-abort on P8.
const P8_CAPACITY: u64 = 64;

/// Fig. 6's panels.
const CDF_PANELS: [&str; 4] = ["bayes", "genome", "labyrinth", "vacation"];

/// Fig. 6's run of `name`: full HinTM on InfCap, recording footprints.
fn fig6_runs(name: &str) -> [Cell; 1] {
    [cell(name, InfCap, Full, Scale::Sim).record_tx_sizes(true)]
}

fn fig6_cells() -> Vec<Cell> {
    grid(&CDF_PANELS, fig6_runs)
}

/// Fig. 6 — every committed TX's distinct-block footprint on InfCap, as
/// seen by the baseline HTM (all blocks), HinTM-st (blocks of
/// non-statically-safe accesses) and full HinTM (blocks of unsafe
/// accesses).
fn fig6_cdf(get: &Reports<'_>) -> String {
    let mut s = banner(
        "Figure 6: transaction size CDFs (baseline / HinTM-st / HinTM views)",
        "per panel: footprint percentiles in 64B blocks and the fraction exceeding P8's 64 entries",
    );
    for name in CDF_PANELS {
        let [r] = fig6_runs(name).map(|c| get(&c));
        let views = [
            ("baseline", &r.stats.tx_sizes_all),
            ("HinTM-st", &r.stats.tx_sizes_nonstatic),
            ("HinTM", &r.stats.tx_sizes_unsafe),
        ];
        out!(s, "--- {name} ({} committed TXs) ---", views[0].1.len());
        out!(s, "view         p25    p50    p75    p95    max >64 blocks");
        for (label, sizes) in views {
            let v: Vec<u64> = sizes.iter().map(|v| *v as u64).collect();
            let [p25, p50, p75, p95] = [25.0, 50.0, 75.0, 95.0].map(|p| percentile(&v, p));
            let max = v.iter().max().copied().unwrap_or(0);
            let tail = pct(frac_above(&v, P8_CAPACITY));
            out!(
                s,
                "{label:<9} {p25:>6} {p50:>6} {p75:>6} {p95:>6} {max:>6} {tail:>10}"
            );
        }
        out!(s);
    }
    out!(
        s,
        "paper shape: HinTM-st overlaps baseline for bayes and genome; for labyrinth the\n\
         whole distribution collapses below 64; for vacation ~2% of baseline TXs exceed\n\
         64 and HinTM-st halves that tail"
    );
    s
}

/// Fig. 7's runs of `name`: the four hint modes on P8S, larger inputs.
fn fig7_runs(name: &str) -> [Cell; 4] {
    [Off, Static, Dynamic, Full].map(|hint| cell(name, P8S, hint, Scale::Large))
}

fn fig7_cells() -> Vec<Cell> {
    grid(&SUBSET, fig7_runs)
}

/// Fig. 7 — HinTM on P8S (P8 + readset-overflow signatures) with larger
/// inputs (§VI-D1): signatures unbound the readset, so HinTM's remaining
/// leverage is writeset reduction and false-conflict elimination.
fn fig7_p8s(get: &Reports<'_>) -> String {
    let mut s = banner(
        "Figure 7: HinTM on the P8S (signature) HTM, larger inputs",
        "(a) capacity + false-conflict abort reduction; (b) speedup vs baseline P8S",
    );
    out!(
        s,
        "workload   |      capB    capRed |       fcB     fcRed |   sp-st  sp-dyn sp-full"
    );
    let mut sp = [Vec::new(), Vec::new(), Vec::new()];
    for name in SUBSET {
        let [base, st, dy, full] = fig7_runs(name).map(|c| get(&c));
        let speed = [st, dy, full].map(|r| r.speedup_vs(base));
        out!(
            s,
            "{name:<10} | {:>9} {:>9} | {:>9} {:>9} | {:>7} {:>7} {:>7}",
            base.stats.aborts_of(AbortKind::Capacity),
            pct(full.capacity_abort_reduction_vs(base)),
            base.stats.aborts_of(AbortKind::FalseConflict),
            pct(full.false_conflict_reduction_vs(base)),
            x(speed[0]),
            x(speed[1]),
            x(speed[2]),
        );
        sp.iter_mut().zip(speed).for_each(|(v, r)| v.push(r));
    }
    let [st, dy, full] = sp.map(|v| x(geomean(&v)));
    out!(
        s,
        "GEOMEAN    | {:19} | {:19} | {st:>7} {dy:>7} {full:>7}",
        "",
        ""
    );
    out!(s);
    out!(
        s,
        "paper shape: HinTM's benefit narrows but stays positive (~1.28x mean); labyrinth's\n\
         safe writes erase its capacity aborts; vacation's false conflicts drop ~87% for a\n\
         ~1.47x speedup; genome's false-conflict reduction does not move performance"
    );
    s
}

/// Fig. 8's runs of `name`: the four hint modes on L1TM, and InfCap, with
/// 2-way SMT doubling the workload's paper-default thread count.
fn fig8_runs(name: &str) -> [Cell; 5] {
    let threads = if matches!(name, "genome" | "yada") {
        8
    } else {
        16
    };
    [
        (L1Tm, Off),
        (L1Tm, Static),
        (L1Tm, Dynamic),
        (L1Tm, Full),
        (InfCap, Off),
    ]
    .map(|(htm, hint)| {
        cell(name, htm, hint, Scale::Large)
            .threads(threads)
            .smt2(true)
    })
}

fn fig8_cells() -> Vec<Cell> {
    grid(&SUBSET, fig8_runs)
}

/// Fig. 8 — HinTM on L1TM (in-L1 tracking) with 2-way SMT and larger
/// inputs (§VI-D2): the shared L1 turns set conflicts, amplified by the
/// SMT sibling, into capacity aborts.
fn fig8_l1tm(get: &Reports<'_>) -> String {
    let mut s = banner(
        "Figure 8: HinTM on L1TM with 2-way SMT, larger inputs",
        "capacity-abort reduction and speedup vs baseline L1TM; InfCap as the bound",
    );
    out!(
        s,
        "workload   |      capB    capRed |   sp-st  sp-dyn sp-full  sp-inf |   pgmode"
    );
    let mut sp = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for name in SUBSET {
        let [base, st, dy, full, inf] = fig8_runs(name).map(|c| get(&c));
        let speed = [st, dy, full, inf].map(|r| r.speedup_vs(base));
        out!(
            s,
            "{name:<10} | {:>9} {:>9} | {:>7} {:>7} {:>7} {:>7} | {:>8}",
            base.stats.aborts_of(AbortKind::Capacity),
            pct(full.capacity_abort_reduction_vs(base)),
            x(speed[0]),
            x(speed[1]),
            x(speed[2]),
            x(speed[3]),
            pct(full.page_mode_fraction()),
        );
        sp.iter_mut().zip(speed).for_each(|(v, r)| v.push(r));
    }
    let [st, dy, full, inf] = sp.map(|v| x(geomean(&v)));
    out!(
        s,
        "GEOMEAN    | {:19} | {st:>7} {dy:>7} {full:>7} {inf:>7} |",
        ""
    );
    out!(s);
    out!(
        s,
        "paper shape: HinTM's best configuration — ~1.7x mean, up to 7.1x (labyrinth),\n\
         capacity aborts cut 29-100%; vacation's potential is eaten by page-mode costs"
    );
    s
}

/// The page-mode outlier, vacation, and two controls.
const PRESERVE_WORKLOADS: [&str; 3] = ["vacation", "genome", "tpcc-no"];

/// The preserve ablation's runs of `name`: full HinTM with preserve off
/// and on, on P8 and then on L1TM.
fn preserve_runs(name: &str) -> [Cell; 4] {
    [(P8, false), (P8, true), (L1Tm, false), (L1Tm, true)]
        .map(|(htm, on)| cell(name, htm, Full, Scale::Sim).preserve(on))
}

fn preserve_cells() -> Vec<Cell> {
    grid(&PRESERVE_WORKLOADS, preserve_runs)
}

/// §VI-B ablation — the preserve page-transition optimization: remote
/// reads of `⟨private,rw⟩` pages downgrade to `⟨shared,ro⟩` instead of
/// shooting down, trading page-mode aborts for continued safe reads.
fn ablation_preserve(get: &Reports<'_>) -> String {
    let mut s = banner(
        "Ablation (§VI-B): page-mode abort cost and the preserve optimization",
        "vacation (the outlier) and two controls, HinTM full, with preserve off/on",
    );
    out!(
        s,
        "workload   htm    | pgm-aborts   pgm-frac shootdowns   speedup"
    );
    for name in PRESERVE_WORKLOADS {
        let [p8_off, p8_on, l1_off, l1_on] = preserve_runs(name).map(|c| get(&c));
        for (htm, off, on) in [(P8, p8_off, p8_on), (L1Tm, l1_off, l1_on)] {
            let (pm_off, pm_on) = (off.page_mode_fraction(), on.page_mode_fraction());
            let (sd_off, sd_on) = (off.stats.vm.shootdowns, on.stats.vm.shootdowns);
            out!(
                s,
                "{name:<10} {:<6} | {:>4} -> {:>3} {:>10} {:>10} {:>9}",
                htm.to_string(),
                off.stats.aborts_of(AbortKind::PageMode),
                on.stats.aborts_of(AbortKind::PageMode),
                format!("{} -> {}", pct(pm_off), pct(pm_on)),
                format!("{sd_off} -> {sd_on}"),
                x(on.speedup_vs(off)),
            );
        }
    }
    out!(s);
    out!(
        s,
        "paper shape: vacation combines the highest page-mode abort frequency and cost;\n\
         gentler transition handling recoups part of its InfCap headroom (§VI-B, §VI-D2)"
    );
    s
}

/// The requester-wins half of the policy ablation: requester-wins is the
/// machine's default, so that half is plain baseline P8.
fn policy_runs(name: &str) -> [Cell; 1] {
    [cell(name, P8, Off, Scale::Sim)]
}

fn policy_cells() -> Vec<Cell> {
    grid(&WORKLOAD_NAMES, policy_runs)
}

/// Ablation — eager conflict resolution: requester-wins (the commercial
/// HTM default, and ours) vs responder-wins, on baseline P8. The policy
/// decides which transaction dies when a coherence request hits another
/// thread's read/write set; it changes who loses work, not whether
/// conflicts exist. No [`Cell`] axis reaches the policy, so the
/// responder-wins runs drive a [`Simulator`] directly.
fn ablation_policy(get: &Reports<'_>) -> String {
    let mut s = banner(
        "Ablation: eager conflict policy (requester-wins vs responder-wins)",
        "baseline P8; responder-wins aborts the requester's own TX on a hit",
    );
    out!(
        s,
        "workload   |    conf(req)   conf(resp) |    fb(req)   fb(resp) | resp-vs-req"
    );
    for name in WORKLOAD_NAMES {
        let [req] = policy_runs(name).map(|c| &get(&c).stats);
        let mut cfg = SimConfig::with_htm(P8);
        cfg.machine.conflict_policy = ConflictPolicy::ResponderWins;
        let mut w = by_name(name, Scale::Sim).expect("registered");
        let resp = Simulator::new(cfg).run(w.as_mut(), SEED);
        out!(
            s,
            "{name:<10} | {:>12} {:>12} | {:>10} {:>10} | {:>9}",
            req.aborts_of(AbortKind::Conflict),
            resp.aborts_of(AbortKind::Conflict),
            req.fallback_commits,
            resp.fallback_commits,
            x(req.total_cycles.raw() as f64 / resp.total_cycles.raw().max(1) as f64),
        );
    }
    out!(
        s,
        "\nrequester-wins favors the thread making progress *now* (commercial HTMs);\n\
         responder-wins protects long-running transactions at the requester's expense."
    );
    s
}

/// The workloads with statically-safe accesses.
const ESCAPE_WORKLOADS: [&str; 5] = ["bayes", "labyrinth", "vacation", "tpcc-no", "tpcc-p"];

/// The safe-opcode half of the escape ablation: baseline and static
/// hints on P8.
fn escape_runs(name: &str) -> [Cell; 2] {
    [Off, Static].map(|hint| cell(name, P8, hint, Scale::Sim))
}

fn escape_cells() -> Vec<Cell> {
    grid(&ESCAPE_WORKLOADS, escape_runs)
}

/// Ablation (§VII) — static hints encoded as suspend/resume escape
/// windows instead of safe-access opcodes. The paper argues the two are
/// equivalent for static classification (and that neither can express
/// the dynamic mechanism). The escape runs wrap the workload, which no
/// [`Cell`] axis does, so they drive a [`Simulator`] directly.
fn ablation_escape(get: &Reports<'_>) -> String {
    let mut s = banner(
        "Ablation: safe-access opcodes vs suspend/resume escape windows",
        "static classification delivered two ways; dynamic hints disabled in both",
    );
    out!(
        s,
        "workload   |  cap(base)    cap(st)   cap(esc) |     sp-st    sp-esc"
    );
    for name in ESCAPE_WORKLOADS {
        let [base, st] = escape_runs(name).map(|c| &get(&c).stats);
        // The escape encoding needs no hint support in the HTM at all.
        let mut w = EscapeEncoded::new(by_name(name, Scale::Sim).expect("registered"));
        let esc = Simulator::new(SimConfig::with_htm(P8)).run(&mut w, SEED);
        let speedup =
            |r: &RunStats| x(base.total_cycles.raw() as f64 / r.total_cycles.raw().max(1) as f64);
        out!(
            s,
            "{name:<10} | {:>10} {:>10} {:>10} | {:>9} {:>9}",
            base.aborts_of(AbortKind::Capacity),
            st.aborts_of(AbortKind::Capacity),
            esc.aborts_of(AbortKind::Capacity),
            speedup(st),
            speedup(&esc),
        );
    }
    out!(
        s,
        "\nthe two columns should match closely: escape windows deliver the same\n\
         effective-capacity expansion on ISAs without safe-access opcodes, at the cost\n\
         of extra suspend/resume instructions (not modelled) and no dynamic channel"
    );
    s
}

/// The comparators' runs of `name`: baseline P8, then full HinTM on P8,
/// ROT, LogTM and InfCap.
fn beyond_runs(name: &str) -> [Cell; 5] {
    [
        (P8, Off),
        (P8, Full),
        (Rot, Off),
        (LogTm, Off),
        (InfCap, Off),
    ]
    .map(|(htm, hint)| cell(name, htm, hint, Scale::Sim))
}

fn beyond_cells() -> Vec<Cell> {
    grid(&WORKLOAD_NAMES, beyond_runs)
}

/// Beyond the paper — the §VII capacity mechanisms as executable
/// comparators: HinTM on P8 vs rollback-only transactions (SI-HTM-style:
/// loads untracked, weaker isolation) vs a LogTM-style large HTM
/// (unbounded via a memory log, strict isolation, per-overflow unroll
/// costs). How much of the large-HTM benefit does HinTM recover while
/// keeping conventional-HTM hardware?
fn beyond_baselines(get: &Reports<'_>) -> String {
    let mut s = banner(
        "Beyond the paper: HinTM vs ROT (SI-HTM-style) vs LogTM-style large HTM",
        "speedups vs baseline P8; ROT trades isolation, LogTM trades hardware simplicity",
    );
    out!(
        s,
        "workload   |  capB(P8) |    HinTM      ROT    LogTM   InfCap | ROT missed*"
    );
    let mut sp = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for name in WORKLOAD_NAMES {
        let [base, hinted, rot, log, inf] = beyond_runs(name).map(|c| get(&c));
        let speed = [hinted, rot, log, inf].map(|r| r.speedup_vs(base));
        // Conflicts the strict configurations catch but ROT cannot see
        // (read-write races on untracked loads): approximate as the gap in
        // detected conflict aborts.
        let missed = base
            .stats
            .aborts_of(AbortKind::Conflict)
            .saturating_sub(rot.stats.aborts_of(AbortKind::Conflict));
        out!(
            s,
            "{name:<10} | {:>9} | {:>8} {:>8} {:>8} {:>8} | {missed:>10}",
            base.stats.aborts_of(AbortKind::Capacity),
            x(speed[0]),
            x(speed[1]),
            x(speed[2]),
            x(speed[3]),
        );
        sp.iter_mut().zip(speed).for_each(|(v, r)| v.push(r));
    }
    let [hinted, rot, log, inf] = sp.map(|v| x(geomean(&v)));
    out!(
        s,
        "GEOMEAN    | {:9} | {hinted:>8} {rot:>8} {log:>8} {inf:>8} |",
        ""
    );
    out!(s);
    out!(
        s,
        "* conflicts detectable under strict 2PL that ROT's untracked loads cannot see —\n\
          the isolation price of the SI-HTM approach (§VII). HinTM keeps strict 2PL and\n\
          conventional hardware while recovering most of the large-HTM headroom."
    );
    s
}

/// The variance check's seeds.
const VARIANCE_SEEDS: [u64; 5] = [11, 42, 97, 1234, 31337];

/// The variance check's runs of `name`: baseline P8 at each seed, then
/// full HinTM at each seed.
fn variance_runs(name: &str) -> [Cell; 10] {
    std::array::from_fn(|i| {
        let hint = if i < VARIANCE_SEEDS.len() { Off } else { Full };
        let seed = VARIANCE_SEEDS[i % VARIANCE_SEEDS.len()];
        Cell::new(name).htm(P8).hint(hint).seed(seed)
    })
}

fn variance_cells() -> Vec<Cell> {
    grid(&WORKLOAD_NAMES, variance_runs)
}

/// Methodology check — the headline speedups across five seeds as
/// min/geomean/max. Narrow spreads justify quoting single-seed numbers
/// in EXPERIMENTS.md.
fn variance_check(get: &Reports<'_>) -> String {
    let mut s = banner(
        "Variance check: HinTM speedup over baseline P8 across 5 seeds",
        "min / geomean / max per workload; spread = (max-min)/geomean",
    );
    out!(s, "workload        min   geomean      max    spread");
    for name in WORKLOAD_NAMES {
        let runs = variance_runs(name).map(|c| get(&c));
        let (base, hinted) = runs.split_at(VARIANCE_SEEDS.len());
        let speedups: Vec<f64> = hinted
            .iter()
            .zip(base)
            .map(|(h, b)| h.speedup_vs(b))
            .collect();
        let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
        let max = speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let gm = geomean(&speedups);
        let spread = if gm > 0.0 {
            100.0 * (max - min) / gm
        } else {
            0.0
        };
        out!(
            s,
            "{name:<10} {min:>7.2}x {gm:>8.2}x {max:>7.2}x {spread:>8.1}%"
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        for f in &FIGURES {
            assert_eq!(figure(f.name).map(|g| g.name), Some(f.name));
        }
        assert!(figure("fig3").is_none());
    }

    #[test]
    fn batch_drops_shared_cells() {
        let fig4 = figure("fig4_p8").unwrap();
        let beyond = figure("beyond_baselines").unwrap();
        let alone = (fig4.cells)().len() + (beyond.cells)().len();
        // Baseline P8, full HinTM and InfCap appear in both rows.
        assert_eq!(
            batch(&[fig4, beyond]).len(),
            alone - 3 * WORKLOAD_NAMES.len()
        );
    }
}
