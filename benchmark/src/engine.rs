//! Running single cells: plain, and with the benchmark's own timing
//! decorator and event sinks attached from outside the engine.

use hintm::{
    AllocConfig, RunReport, RunStats, Section, Simulator, TraceEvent, TraceSink, Workload,
};
use hintm_runner::Cell;
use hintm_types::{Addr, SiteId, ThreadId};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Runs `cell` exactly as `hintm run` does, turning a panic or an unknown
/// workload into an error message.
pub fn run_cell(cell: &Cell) -> Result<RunReport, String> {
    match catch_unwind(AssertUnwindSafe(|| cell.run())) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into())),
    }
}

/// The workload instance `cell` runs, built the way `Experiment` builds
/// it, so instrumented runs simulate exactly the same input.
///
/// # Panics
///
/// Panics on an unregistered workload name (the benchmark's cell sets
/// only name registered ones).
pub fn workload_for(cell: &Cell) -> Box<dyn Workload> {
    let mut w = match cell.threads {
        Some(t) => hintm::by_name_with_threads(&cell.workload, cell.scale, t),
        None => hintm::by_name(&cell.workload, cell.scale),
    }
    .expect("registered workload");
    w.set_alloc_config(AllocConfig {
        color_stride: cell.alloc_color,
        ..AllocConfig::default()
    });
    w
}

/// Runs `cell`'s input through `workload` (possibly a decorator around
/// [`workload_for`]) with an optional sink, returning the report and the
/// wall time in nanoseconds.
pub fn simulate(
    cell: &Cell,
    workload: &mut dyn Workload,
    sink: Option<&mut dyn TraceSink>,
) -> (RunReport, u64) {
    let sim = Simulator::new(cell.experiment().sim_config());
    let t = Instant::now();
    let stats: RunStats = match sink {
        Some(s) => sim.run_with_sink(workload, cell.seed, s),
        None => sim.run(workload, cell.seed),
    };
    let wall = t.elapsed().as_nanos() as u64;
    let report = RunReport {
        workload: cell.workload.clone(),
        htm: cell.htm,
        hint_mode: cell.hint,
        stats,
        trace: None,
    };
    (report, wall)
}

/// A workload decorator timing every `next_section` call, in the style of
/// `DigestingWorkload`. It forwards every other trait method, so the
/// engine sees the same workload and produces the same statistics.
pub struct TimedGen {
    inner: Box<dyn Workload>,
    /// Nanoseconds spent inside the inner `next_section`.
    pub gen_ns: u64,
    /// The first calls' bounds, for span output.
    pub spans: Vec<(Instant, Instant)>,
    keep_spans: usize,
    /// The first sections generated, for replay through the compiler.
    pub sections: Vec<Section>,
    keep_sections: usize,
}

impl TimedGen {
    /// Wraps `inner`, keeping the first `keep_spans` call bounds and the
    /// first `keep_sections` sections.
    pub fn new(inner: Box<dyn Workload>, keep_spans: usize, keep_sections: usize) -> TimedGen {
        TimedGen {
            inner,
            gen_ns: 0,
            spans: Vec::new(),
            keep_spans,
            sections: Vec::new(),
            keep_sections,
        }
    }
}

impl Workload for TimedGen {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn num_threads(&self) -> usize {
        self.inner.num_threads()
    }

    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
    }

    fn set_alloc_config(&mut self, cfg: AllocConfig) {
        self.inner.set_alloc_config(cfg);
    }

    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        let start = Instant::now();
        let section = self.inner.next_section(tid);
        let end = Instant::now();
        self.gen_ns += (end - start).as_nanos() as u64;
        if self.spans.len() < self.keep_spans {
            self.spans.push((start, end));
        }
        if let Some(s) = &section {
            if self.sections.len() < self.keep_sections {
                self.sections.push(s.clone());
            }
        }
        section
    }

    fn static_safe_sites(&self) -> HashSet<SiteId> {
        self.inner.static_safe_sites()
    }

    fn notary_safe_ranges(&self) -> Vec<(Addr, u64)> {
        self.inner.notary_safe_ranges()
    }

    fn generation_is_thread_local(&self) -> bool {
        self.inner.generation_is_thread_local()
    }
}

/// A sink keeping the first `cap` events of a run.
pub struct Capture {
    /// The kept events, in delivery order.
    pub events: Vec<TraceEvent>,
    cap: usize,
}

impl Capture {
    /// Keeps at most `cap` events.
    pub fn new(cap: usize) -> Capture {
        Capture {
            events: Vec::with_capacity(cap.min(1 << 16)),
            cap,
        }
    }
}

impl TraceSink for Capture {
    fn event(&mut self, ev: &TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(*ev);
        }
    }
}
