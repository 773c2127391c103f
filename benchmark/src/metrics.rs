//! The metrics the benchmark reports, as declared in `BENCHMARK.json`.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Stable name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression (`None` for layer metrics).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics a user sees, reported by every untraced run.
pub const END_TO_END: [Metric; 6] = [
    e2e("events_per_s", "1/s", Higher, 0.25),
    e2e("sweep_s", "s", Lower, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_tail_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_heap_mb", "MiB", Lower, 0.10),
];

/// Metrics of single layers, reported by every traced run.
pub const PER_LAYER: [Metric; 39] = [
    layer("workloads.gen_ns_per_event", "ns", Lower),
    layer("sim.merge_self_ns_per_event", "ns", Lower),
    layer("sim.steps_per_event", "count", Lower),
    layer("sim.commit_ratio", "ratio", Higher),
    layer("sim.lower_ns_per_section", "ns", Lower),
    layer("sim.program_cache_hit_ratio", "ratio", Higher),
    layer("sim.lanes2_vs_1", "ratio", Higher),
    layer("sim.lanes_amdahl_bound", "ratio", Higher),
    layer("cache.ns_per_access", "ns", Lower),
    layer("cache.l1_hit_ratio", "ratio", Higher),
    layer("cache.l2_hit_ratio", "ratio", Higher),
    layer("cache.mem_fetches_per_kevent", "count", Lower),
    layer("vm.ns_per_access", "ns", Lower),
    layer("vm.page_walks_per_kevent", "count", Lower),
    layer("vm.shootdowns", "count", Lower),
    layer("vm.safe_load_ratio", "ratio", Higher),
    layer("htm.ns_per_tracked_access", "ns", Lower),
    layer("htm.probe_ns", "ns", Lower),
    layer("htm.tracked_ratio", "ratio", Lower),
    layer("htm.capacity_aborts", "count", Lower),
    layer("trace.sink_ns_per_event", "ns", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("runner.busy_ratio", "ratio", Higher),
    layer("runner.store_ms_per_cell", "ms", Lower),
    layer("runner.warm_sweep_ms", "ms", Lower),
    layer("serve.stats_p50_ms", "ms", Lower),
    layer("serve.stats_p90_ms", "ms", Lower),
    layer("serve.poll_p50_ms", "ms", Lower),
    layer("serve.poll_p90_ms", "ms", Lower),
    layer("serve.submit_p50_ms", "ms", Lower),
    layer("serve.submit_p90_ms", "ms", Lower),
    layer("serve.report_p50_ms", "ms", Lower),
    layer("serve.report_p90_ms", "ms", Lower),
    layer("serve.list_p50_ms", "ms", Lower),
    layer("serve.list_p90_ms", "ms", Lower),
    layer("serve.executed", "count", Higher),
    layer("serve.cached", "count", Higher),
    layer("ir.build_ms", "ms", Lower),
    layer("bench.span_overhead_ratio", "ratio", Lower),
];

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Bench;
    use hintm::Json;

    const DECLARED: &str = include_str!("../../BENCHMARK.json");

    fn declared() -> Json {
        Json::parse(DECLARED).expect("BENCHMARK.json parses")
    }

    fn check_list(j: &Json, key: &str, want: &[Metric]) {
        let got = j.field(key).unwrap().as_arr().unwrap();
        assert_eq!(got.len(), want.len(), "{key}: count");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.field("name").unwrap().as_str().unwrap(), w.name);
            assert_eq!(
                g.field("unit").unwrap().as_str().unwrap(),
                w.unit,
                "{}",
                w.name
            );
            assert_eq!(
                g.field("better").unwrap().as_str().unwrap(),
                w.better.as_str(),
                "{}",
                w.name
            );
            assert_eq!(
                g.get("bound").map(|b| b.as_f64().unwrap()),
                w.bound,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(Bench::ALL.iter().map(|b| b.name()));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(""));
        assert!(valid_name("serve.stats_p90_ms") && valid_name("grid-off"));
    }

    #[test]
    fn benchmark_json_declares_these_metrics_and_workloads() {
        let j = declared();
        check_list(&j, "end_to_end", &END_TO_END);
        check_list(&j, "per_layer", &PER_LAYER);
        let workloads: Vec<&str> = j
            .field("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(workloads, ours);
        let run_seconds = j.field("run_seconds").unwrap().as_f64().unwrap();
        assert_eq!(run_seconds, crate::DEFAULT_SECONDS);
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound.unwrap() <= setup.bound.unwrap() && m.bound.unwrap() <= 0.25);
        }
    }
}
