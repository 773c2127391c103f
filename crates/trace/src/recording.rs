//! The all-in-one sink the CLI and runner attach: bounded event buffer +
//! metrics + digest, folded in a single pass.

use crate::buffer::TraceBuffer;
use crate::digest::DigestSink;
use crate::event::TraceEvent;
use crate::metrics::{HistSummary, TraceMetrics};
use crate::sink::TraceSink;

/// A composite sink recording the first `capacity` events verbatim while
/// folding **every** event into metrics and the stream digest.
///
/// The digest therefore covers the full run even when the buffer drops
/// events, so replay-determinism checks are exact regardless of capacity.
#[derive(Clone, Debug)]
pub struct Recording {
    buffer: TraceBuffer,
    metrics: TraceMetrics,
    digest: DigestSink,
}

impl Recording {
    /// A recording retaining the first `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Recording {
            buffer: TraceBuffer::keep_first(capacity),
            metrics: TraceMetrics::new(),
            digest: DigestSink::new(),
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buffer.events()
    }

    /// Events that exceeded the buffer capacity (still digested/counted).
    pub fn dropped(&self) -> u64 {
        self.buffer.dropped()
    }

    /// The folded counters and histograms.
    pub fn metrics(&self) -> &TraceMetrics {
        &self.metrics
    }

    /// The FNV-1a digest over every event's canonical encoding.
    pub fn digest(&self) -> u64 {
        self.digest.digest()
    }

    /// Renders a compact per-thread timeline: time flows left to right in
    /// `buckets` columns; each cell shows the most severe lifecycle event
    /// in the bucket (`F` fallback, `A` capacity abort, `P` page-mode
    /// abort, `a` other abort, `C` commit, `s` shootdown, `.` begin).
    /// Access, section, eviction and coherence events are not drawn.
    pub fn render_timeline(&self, threads: usize, buckets: usize) -> String {
        self.buffer.render_timeline(threads, buckets)
    }

    /// The scalar summary reports embed.
    pub fn summary(&self) -> TraceSummary {
        let m = &self.metrics;
        TraceSummary {
            events: m.events,
            dropped: self.dropped(),
            digest: self.digest(),
            sections: m.sections,
            barriers: m.barriers,
            begins: m.begins,
            commits: m.commits,
            fallback_acquires: m.fallback_acquires,
            fallback_commits: m.fallback_commits,
            aborts: m.aborts,
            lost_cycles: m.lost_cycles,
            shootdowns: m.shootdowns,
            accesses: m.accesses,
            tx_accesses: m.tx_accesses,
            l1_evictions: m.l1_evictions,
            invalidations: m.invalidations,
            downgrades: m.downgrades,
            occupancy_hwm: m.occupancy_hwm,
            read_set: m.read_set.summary(),
            write_set: m.write_set.summary(),
            commit_footprint: m.commit_footprint.summary(),
            retries: m.retries.summary(),
        }
    }
}

impl TraceSink for Recording {
    fn event(&mut self, ev: &TraceEvent) {
        self.buffer.event(ev);
        self.metrics.event(ev);
        self.digest.event(ev);
    }
}

/// Scalar metric summary of a recorded run — what [`Recording::summary`]
/// returns and run reports serialize.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events emitted (buffered or not).
    pub events: u64,
    /// Events the buffer could not retain.
    pub dropped: u64,
    /// FNV-1a digest of the full event stream.
    pub digest: u64,
    /// Sections fetched from the workload.
    pub sections: u64,
    /// Barrier releases.
    pub barriers: u64,
    /// Transaction attempts started.
    pub begins: u64,
    /// HTM commits.
    pub commits: u64,
    /// Fallback-lock acquisitions.
    pub fallback_acquires: u64,
    /// Bodies completed under the fallback lock.
    pub fallback_commits: u64,
    /// Aborts by cause, in `AbortKind::ALL` order.
    pub aborts: [u64; 5],
    /// Speculative cycles lost to aborts, by cause.
    pub lost_cycles: [u64; 5],
    /// TLB shootdowns.
    pub shootdowns: u64,
    /// Memory accesses delivered.
    pub accesses: u64,
    /// The subset of `accesses` executed transactionally.
    pub tx_accesses: u64,
    /// L1 evictions.
    pub l1_evictions: u64,
    /// Peer-cache invalidations.
    pub invalidations: u64,
    /// Peer-cache downgrades.
    pub downgrades: u64,
    /// Largest tracked HTM footprint at any commit or abort, in blocks.
    pub occupancy_hwm: u64,
    /// Read-set sizes at commit.
    pub read_set: HistSummary,
    /// Write-set sizes at commit.
    pub write_set: HistSummary,
    /// Footprints at commit.
    pub commit_footprint: HistSummary,
    /// Retries survived per committed body.
    pub retries: HistSummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::DigestSink;
    use hintm_types::{Cycles, ThreadId};

    fn begin(at: u64) -> TraceEvent {
        TraceEvent::TxBegin {
            thread: ThreadId(0),
            at: Cycles(at),
        }
    }

    #[test]
    fn digest_covers_dropped_events() {
        let mut small = Recording::new(1);
        let mut big = Recording::new(100);
        for at in 0..10 {
            small.event(&begin(at));
            big.event(&begin(at));
        }
        assert_eq!(small.events().len(), 1);
        assert_eq!(small.dropped(), 9);
        assert_eq!(big.dropped(), 0);
        assert_eq!(small.digest(), big.digest(), "digest ignores retention");
        assert_eq!(small.metrics().begins, 10, "metrics ignore retention");
    }

    #[test]
    fn summary_mirrors_components() {
        let mut rec = Recording::new(8);
        rec.event(&begin(1));
        rec.event(&TraceEvent::TxCommit {
            thread: ThreadId(0),
            at: Cycles(5),
            read_set: 2,
            write_set: 1,
            footprint: 3,
            retries: 0,
        });
        let s = rec.summary();
        assert_eq!(s.events, 2);
        assert_eq!(s.begins, 1);
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts.iter().sum::<u64>(), 0);
        assert_eq!(s.occupancy_hwm, 3);
        assert_eq!(s.read_set.count, 1);
        assert_eq!(s.read_set.max, 2);
        assert_eq!(s.digest, rec.digest());
        let mut d = DigestSink::new();
        for e in rec.events() {
            d.event(&e);
        }
        assert_eq!(
            d.digest(),
            s.digest,
            "buffer + digest agree when nothing drops"
        );
        assert_eq!(s, rec.summary(), "summary is pure");
    }
}
