//! A bounded keep-first event log, plus the text timeline renderer.

use crate::event::TraceEvent;
use crate::sink::TraceSink;
use hintm_types::AbortKind;

/// A bounded in-memory event log keeping a run's prefix (golden
/// snapshots, "how did this start" debugging). A counter records how many
/// later events did not fit.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer keeping the **first** `capacity` events.
    pub(crate) fn keep_first(capacity: usize) -> Self {
        TraceBuffer {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, or counts it as dropped when the buffer is full.
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// The retained events, oldest first.
    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        self.events.clone()
    }

    /// Events that exceeded the capacity.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the timeline described at [`crate::Recording::render_timeline`].
    pub(crate) fn render_timeline(&self, threads: usize, buckets: usize) -> String {
        let events = &self.events;
        let end = events
            .iter()
            .map(|e| e.at().raw())
            .max()
            .unwrap_or(0)
            .max(1);
        let mut grid = vec![vec![' '; buckets]; threads];
        let sev = |c: char| match c {
            'F' => 6,
            'A' => 5,
            'P' => 4,
            'a' => 3,
            'C' => 2,
            's' => 1,
            '.' => 0,
            _ => -1,
        };
        for ev in events {
            let Some(t) = ev.thread() else { continue };
            let t = t.index();
            if t >= threads {
                continue;
            }
            let b = ((ev.at().raw() * buckets as u64) / (end + 1)) as usize;
            let c = match ev {
                TraceEvent::TxBegin { .. } => '.',
                TraceEvent::TxCommit { .. } => 'C',
                TraceEvent::TxAbort {
                    kind: AbortKind::Capacity,
                    ..
                } => 'A',
                TraceEvent::TxAbort {
                    kind: AbortKind::PageMode,
                    ..
                } => 'P',
                TraceEvent::TxAbort { .. } => 'a',
                TraceEvent::FallbackAcquire { .. } | TraceEvent::FallbackCommit { .. } => 'F',
                TraceEvent::Shootdown { .. } => 's',
                _ => continue,
            };
            if sev(c) > sev(grid[t][b]) {
                grid[t][b] = c;
            }
        }
        let mut out = String::new();
        for (t, row) in grid.iter().enumerate() {
            out.push_str(&format!("H{t:<2} |"));
            out.extend(row.iter());
            out.push_str("|\n");
        }
        if self.dropped > 0 {
            out.push_str(&format!("({} events dropped)\n", self.dropped));
        }
        out
    }
}

impl TraceSink for TraceBuffer {
    fn event(&mut self, ev: &TraceEvent) {
        self.record(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm_types::{Cycles, ThreadId};

    fn begin(thread: u32, at: u64) -> TraceEvent {
        TraceEvent::TxBegin {
            thread: ThreadId(thread),
            at: Cycles(at),
        }
    }

    #[test]
    fn keep_first_retains_the_prefix() {
        let mut b = TraceBuffer::keep_first(2);
        for at in 0..5 {
            b.record(begin(0, at));
        }
        let evs = b.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].at(), Cycles(0));
        assert_eq!(evs[1].at(), Cycles(1));
        assert_eq!(b.dropped(), 3);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut b = TraceBuffer::keep_first(0);
        b.record(begin(0, 1));
        assert!(b.events().is_empty());
        assert_eq!(b.dropped(), 1);
    }

    #[test]
    fn records_events_of_every_thread() {
        let mut b = TraceBuffer::keep_first(16);
        b.record(begin(0, 0));
        b.record(begin(1, 1));
        b.record(TraceEvent::TxCommit {
            thread: ThreadId(1),
            at: Cycles(2),
            read_set: 0,
            write_set: 0,
            footprint: 0,
            retries: 0,
        });
        assert_eq!(b.events().len(), 3);
    }

    #[test]
    fn timeline_places_events_and_ranks_severity() {
        let mut b = TraceBuffer::keep_first(16);
        b.record(begin(0, 0));
        b.record(TraceEvent::TxCommit {
            thread: ThreadId(0),
            at: Cycles(99),
            read_set: 1,
            write_set: 0,
            footprint: 1,
            retries: 0,
        });
        b.record(TraceEvent::TxAbort {
            thread: ThreadId(1),
            at: Cycles(50),
            kind: AbortKind::Capacity,
            lost: 10,
            footprint: 64,
            retries: 1,
        });
        let s = b.render_timeline(2, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("H0"));
        assert!(lines[0].contains("|."), "begin in first bucket: {s}");
        assert!(lines[0].contains('C'));
        assert!(lines[1].contains('A'));

        // Commit and a capacity abort in the same bucket: abort wins.
        let mut b = TraceBuffer::keep_first(16);
        b.record(TraceEvent::TxCommit {
            thread: ThreadId(0),
            at: Cycles(10),
            read_set: 0,
            write_set: 0,
            footprint: 0,
            retries: 0,
        });
        b.record(TraceEvent::TxAbort {
            thread: ThreadId(0),
            at: Cycles(11),
            kind: AbortKind::Capacity,
            lost: 0,
            footprint: 0,
            retries: 1,
        });
        let s = b.render_timeline(1, 1);
        assert!(s.contains('A') && !s.contains('C'));
    }
}
