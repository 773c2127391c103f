//! Counter and histogram metrics folded from the event stream.

use crate::event::{abort_kind_index, TraceEvent};
use crate::sink::TraceSink;
use std::fmt;

/// Number of power-of-two buckets a [`Histogram`] keeps (values up to
/// `2^63` land in the last bucket).
pub(crate) const HIST_BUCKETS: usize = 65;

/// A power-of-two-bucket histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`. Alongside the buckets it tracks count, sum, min and
/// max exactly, so summaries are deterministic and platform-independent.
#[derive(Clone)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index for `v`.
    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub(crate) fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The exact scalar summary (what reports serialize).
    pub(crate) fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram(n={}, min={}, mean={:.1}, max={})",
            self.count(),
            self.min(),
            self.mean(),
            self.max()
        )
    }
}

impl fmt::Display for Histogram {
    /// Renders the non-empty buckets as `lo..hi:count` pairs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            first = false;
            if i == 0 {
                write!(f, "0:{n}")?;
            } else {
                write!(f, "{}..{}:{n}", 1u64 << (i - 1), (1u128 << i) - 1)?;
            }
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

/// The exact scalar summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistSummary {
    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Counters and histograms folded from a run's event stream.
///
/// Everything here is derived purely from [`TraceEvent`]s, so a metrics
/// sink attached to a deterministic run is itself deterministic — the
/// golden-snapshot tests pin these counters.
#[derive(Clone, Debug, Default)]
pub struct TraceMetrics {
    /// Total events seen.
    pub events: u64,
    /// Sections fetched from the workload.
    pub(crate) sections: u64,
    /// Barrier releases.
    pub(crate) barriers: u64,
    /// Transaction attempts started.
    pub begins: u64,
    /// HTM commits.
    pub commits: u64,
    /// Fallback-lock acquisitions.
    pub fallback_acquires: u64,
    /// Bodies completed under the fallback lock.
    pub fallback_commits: u64,
    /// Aborts by cause, indexed like `AbortKind::ALL`.
    pub(crate) aborts: [u64; 5],
    /// Speculative cycles lost to aborts, by cause.
    pub(crate) lost_cycles: [u64; 5],
    /// TLB shootdowns observed.
    pub(crate) shootdowns: u64,
    /// Memory accesses delivered (0 when the producing sink elides them).
    pub accesses: u64,
    /// The subset of `accesses` executed transactionally.
    pub(crate) tx_accesses: u64,
    /// L1 evictions observed.
    pub(crate) l1_evictions: u64,
    /// Peer-cache invalidations observed.
    pub(crate) invalidations: u64,
    /// Peer-cache downgrades observed.
    pub(crate) downgrades: u64,
    /// Largest tracked HTM footprint seen at any commit or abort, in
    /// blocks (the run's buffer-occupancy high-water mark).
    pub occupancy_hwm: u64,
    /// Read-set sizes at commit, in blocks.
    pub(crate) read_set: Histogram,
    /// Write-set sizes at commit, in blocks.
    pub(crate) write_set: Histogram,
    /// Footprints at commit, in blocks.
    pub(crate) commit_footprint: Histogram,
    /// Retries survived per committed body.
    pub(crate) retries: Histogram,
}

impl TraceMetrics {
    /// Empty metrics.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Total aborts across causes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }
}

impl TraceSink for TraceMetrics {
    fn event(&mut self, ev: &TraceEvent) {
        self.events += 1;
        match *ev {
            TraceEvent::SectionStart { .. } => self.sections += 1,
            TraceEvent::BarrierRelease { .. } => self.barriers += 1,
            TraceEvent::TxBegin { .. } => self.begins += 1,
            TraceEvent::TxCommit {
                read_set,
                write_set,
                footprint,
                retries,
                ..
            } => {
                self.commits += 1;
                self.read_set.record(read_set as u64);
                self.write_set.record(write_set as u64);
                self.commit_footprint.record(footprint as u64);
                self.retries.record(retries as u64);
                self.occupancy_hwm = self.occupancy_hwm.max(footprint as u64);
            }
            TraceEvent::TxAbort {
                kind,
                lost,
                footprint,
                ..
            } => {
                let k = abort_kind_index(kind);
                self.aborts[k] += 1;
                self.lost_cycles[k] += lost;
                self.occupancy_hwm = self.occupancy_hwm.max(footprint as u64);
            }
            TraceEvent::FallbackAcquire { .. } => self.fallback_acquires += 1,
            TraceEvent::FallbackCommit { .. } => self.fallback_commits += 1,
            TraceEvent::Shootdown { .. } => self.shootdowns += 1,
            TraceEvent::Access { in_tx, .. } => {
                self.accesses += 1;
                if in_tx {
                    self.tx_accesses += 1;
                }
            }
            TraceEvent::L1Eviction { .. } => self.l1_evictions += 1,
            TraceEvent::Coherence {
                invalidated,
                downgraded,
                ..
            } => {
                self.invalidations += invalidated as u64;
                self.downgrades += downgraded as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm_types::{AbortKind, Cycles, ThreadId};

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets[0], 1, "zero bucket");
        assert_eq!(h.buckets[1], 1, "value 1");
        assert_eq!(h.buckets[2], 2, "values 2..3");
        assert_eq!(h.buckets[3], 1, "value 4");
        assert_eq!(h.buckets[10], 1, "value 1000");
        assert_eq!(h.buckets[64], 1, "u64::MAX");
        let s = h.to_string();
        assert!(s.contains("0:1") && s.contains("512..1023:1"), "{s}");
        assert_eq!(Histogram::new().to_string(), "(empty)");
        assert_eq!(Histogram::new().min(), 0);
        assert!((h.summary().mean() - h.mean()).abs() < 1e-9);
    }

    #[test]
    fn metrics_fold_lifecycle_events() {
        let t = ThreadId(0);
        let mut m = TraceMetrics::new();
        m.event(&TraceEvent::SectionStart {
            thread: t,
            at: Cycles(0),
        });
        m.event(&TraceEvent::TxBegin {
            thread: t,
            at: Cycles(1),
        });
        m.event(&TraceEvent::TxAbort {
            thread: t,
            at: Cycles(5),
            kind: AbortKind::Capacity,
            lost: 4,
            footprint: 80,
            retries: 1,
        });
        m.event(&TraceEvent::TxCommit {
            thread: t,
            at: Cycles(9),
            read_set: 5,
            write_set: 3,
            footprint: 8,
            retries: 1,
        });
        m.event(&TraceEvent::Coherence {
            thread: t,
            at: Cycles(10),
            block: hintm_types::BlockAddr::from_index(1),
            invalidated: 2,
            downgraded: 1,
        });
        assert_eq!(m.events, 5);
        assert_eq!(m.sections, 1);
        assert_eq!(m.begins, 1);
        assert_eq!(m.commits, 1);
        assert_eq!(m.total_aborts(), 1);
        assert_eq!(m.aborts[1], 1, "capacity slot");
        assert_eq!(m.lost_cycles[1], 4);
        assert_eq!(m.occupancy_hwm, 80, "abort footprint beats commit");
        assert_eq!(m.read_set.count(), 1);
        assert_eq!(m.retries.max(), 1);
        assert_eq!((m.invalidations, m.downgrades), (2, 1));
    }
}
