//! The trace event taxonomy and its canonical byte encoding.

use hintm_types::{
    AbortKind, AccessKind, Addr, BlockAddr, Cycles, MemAccess, PageId, SafetyHint, SiteId, ThreadId,
};
use std::fmt;

/// One engine occurrence, in scheduling order.
///
/// Every variant carries the hardware thread it belongs to (where one
/// exists) and the thread's local clock at emission time. The enum is the
/// single observation vocabulary of the simulator: lifecycle consumers
/// (timelines, metrics) and access-stream consumers (the audit oracle)
/// both receive it through [`crate::TraceSink`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A thread is about to fetch its next section from the workload.
    ///
    /// Workload state advances at *generation* time (a returned TX body is
    /// replayed verbatim), so the order of these events is the logical
    /// program order of the sections — the order data-structure mutations
    /// actually happened — even when abort replay makes the executed
    /// access streams overlap arbitrarily in simulated time.
    SectionStart {
        /// Hardware thread.
        thread: ThreadId,
        /// Engine time.
        at: Cycles,
    },
    /// A hardware transaction attempt began.
    TxBegin {
        /// Hardware thread.
        thread: ThreadId,
        /// Engine time.
        at: Cycles,
    },
    /// A transaction committed.
    TxCommit {
        /// Hardware thread.
        thread: ThreadId,
        /// Engine time.
        at: Cycles,
        /// Tracked read-set size at commit, in blocks.
        read_set: u32,
        /// Tracked write-set size at commit, in blocks.
        write_set: u32,
        /// Tracked footprint at commit, in blocks (the attempt's occupancy
        /// high-water mark: tracking only grows within an attempt).
        footprint: u32,
        /// Aborted attempts this body survived before committing.
        retries: u32,
    },
    /// A transaction aborted.
    TxAbort {
        /// Hardware thread.
        thread: ThreadId,
        /// Engine time.
        at: Cycles,
        /// Why.
        kind: AbortKind,
        /// Speculative cycles discarded.
        lost: u64,
        /// Tracked footprint at the abort, in blocks (captured before the
        /// tracker is cleared).
        footprint: u32,
        /// Consecutive aborts of this body including this one
        /// (fallback-lock kills retry for free and do not count).
        retries: u32,
    },
    /// A thread acquired the global fallback lock.
    FallbackAcquire {
        /// Hardware thread.
        thread: ThreadId,
        /// Engine time.
        at: Cycles,
    },
    /// A thread completed a body under the fallback lock.
    FallbackCommit {
        /// Hardware thread.
        thread: ThreadId,
        /// Engine time.
        at: Cycles,
    },
    /// A safe→unsafe page transition (TLB shootdown).
    Shootdown {
        /// Initiating hardware thread.
        thread: ThreadId,
        /// Engine time.
        at: Cycles,
        /// The page that turned unsafe.
        page: PageId,
        /// Cores whose TLB entry died.
        slaves: u32,
    },
    /// All threads passed a barrier.
    BarrierRelease {
        /// Engine time (the latest arrival).
        at: Cycles,
        /// Zero-based barrier epoch (number of earlier releases).
        epoch: u32,
    },
    /// A memory access executed (delivered before its VM/cache effects).
    ///
    /// Replayed transaction attempts re-deliver their accesses; accesses
    /// inside a Suspend..Resume escape window arrive with `in_tx = false`
    /// (they execute non-transactionally).
    Access {
        /// Hardware thread.
        thread: ThreadId,
        /// Engine time.
        at: Cycles,
        /// The access (address, kind, static site, compiler hint).
        access: MemAccess,
        /// Speculative execution (fallback, non-TX and escape-window
        /// accesses pass `false`).
        in_tx: bool,
    },
    /// A block was evicted from an L1 cache to make room.
    L1Eviction {
        /// The hardware thread whose access caused the eviction.
        thread: ThreadId,
        /// Engine time.
        at: Cycles,
        /// The evicted block.
        block: BlockAddr,
    },
    /// A coherence action invalidated or downgraded peer copies of a block.
    Coherence {
        /// The requesting hardware thread.
        thread: ThreadId,
        /// Engine time.
        at: Cycles,
        /// The contended block.
        block: BlockAddr,
        /// Peer caches whose copy was invalidated.
        invalidated: u32,
        /// Peer caches whose copy was downgraded to shared.
        downgraded: u32,
    },
}

impl TraceEvent {
    /// The engine time of the event.
    pub(crate) fn at(&self) -> Cycles {
        match self {
            TraceEvent::SectionStart { at, .. }
            | TraceEvent::TxBegin { at, .. }
            | TraceEvent::TxCommit { at, .. }
            | TraceEvent::TxAbort { at, .. }
            | TraceEvent::FallbackAcquire { at, .. }
            | TraceEvent::FallbackCommit { at, .. }
            | TraceEvent::Shootdown { at, .. }
            | TraceEvent::BarrierRelease { at, .. }
            | TraceEvent::Access { at, .. }
            | TraceEvent::L1Eviction { at, .. }
            | TraceEvent::Coherence { at, .. } => *at,
        }
    }

    /// The hardware thread the event belongs to (`None` for barriers).
    pub(crate) fn thread(&self) -> Option<ThreadId> {
        match self {
            TraceEvent::SectionStart { thread, .. }
            | TraceEvent::TxBegin { thread, .. }
            | TraceEvent::TxCommit { thread, .. }
            | TraceEvent::TxAbort { thread, .. }
            | TraceEvent::FallbackAcquire { thread, .. }
            | TraceEvent::FallbackCommit { thread, .. }
            | TraceEvent::Shootdown { thread, .. }
            | TraceEvent::Access { thread, .. }
            | TraceEvent::L1Eviction { thread, .. }
            | TraceEvent::Coherence { thread, .. } => Some(*thread),
            TraceEvent::BarrierRelease { .. } => None,
        }
    }

    /// A short stable name for exports and debugging.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            TraceEvent::SectionStart { .. } => "section_start",
            TraceEvent::TxBegin { .. } => "tx_begin",
            TraceEvent::TxCommit { .. } => "tx_commit",
            TraceEvent::TxAbort { .. } => "tx_abort",
            TraceEvent::FallbackAcquire { .. } => "fallback_acquire",
            TraceEvent::FallbackCommit { .. } => "fallback_commit",
            TraceEvent::Shootdown { .. } => "shootdown",
            TraceEvent::BarrierRelease { .. } => "barrier_release",
            TraceEvent::Access { .. } => "access",
            TraceEvent::L1Eviction { .. } => "l1_eviction",
            TraceEvent::Coherence { .. } => "coherence",
        }
    }

    /// Appends the canonical byte encoding to `out`: a tag byte followed
    /// by LEB128 varints of every field, in declaration order. This is
    /// both the digest input and the binary-log wire format, so it must
    /// never change for an existing variant — add new tags instead.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            TraceEvent::SectionStart { thread, at } => {
                out.push(0);
                varint(out, thread.0 as u64);
                varint(out, at.raw());
            }
            TraceEvent::TxBegin { thread, at } => {
                out.push(1);
                varint(out, thread.0 as u64);
                varint(out, at.raw());
            }
            TraceEvent::TxCommit {
                thread,
                at,
                read_set,
                write_set,
                footprint,
                retries,
            } => {
                out.push(2);
                varint(out, thread.0 as u64);
                varint(out, at.raw());
                varint(out, read_set as u64);
                varint(out, write_set as u64);
                varint(out, footprint as u64);
                varint(out, retries as u64);
            }
            TraceEvent::TxAbort {
                thread,
                at,
                kind,
                lost,
                footprint,
                retries,
            } => {
                out.push(3);
                varint(out, thread.0 as u64);
                varint(out, at.raw());
                varint(out, abort_kind_index(kind) as u64);
                varint(out, lost);
                varint(out, footprint as u64);
                varint(out, retries as u64);
            }
            TraceEvent::FallbackAcquire { thread, at } => {
                out.push(4);
                varint(out, thread.0 as u64);
                varint(out, at.raw());
            }
            TraceEvent::FallbackCommit { thread, at } => {
                out.push(5);
                varint(out, thread.0 as u64);
                varint(out, at.raw());
            }
            TraceEvent::Shootdown {
                thread,
                at,
                page,
                slaves,
            } => {
                out.push(6);
                varint(out, thread.0 as u64);
                varint(out, at.raw());
                varint(out, page.index());
                varint(out, slaves as u64);
            }
            TraceEvent::BarrierRelease { at, epoch } => {
                out.push(7);
                varint(out, at.raw());
                varint(out, epoch as u64);
            }
            TraceEvent::Access {
                thread,
                at,
                access,
                in_tx,
            } => {
                out.push(8);
                varint(out, thread.0 as u64);
                varint(out, at.raw());
                varint(out, access.addr.raw());
                let flags = (access.kind == AccessKind::Store) as u64
                    | ((access.hint.is_safe() as u64) << 1)
                    | ((in_tx as u64) << 2);
                out.push(flags as u8);
                varint(out, access.site.0 as u64);
            }
            TraceEvent::L1Eviction { thread, at, block } => {
                out.push(9);
                varint(out, thread.0 as u64);
                varint(out, at.raw());
                varint(out, block.index());
            }
            TraceEvent::Coherence {
                thread,
                at,
                block,
                invalidated,
                downgraded,
            } => {
                out.push(10);
                varint(out, thread.0 as u64);
                varint(out, at.raw());
                varint(out, block.index());
                varint(out, invalidated as u64);
                varint(out, downgraded as u64);
            }
        }
    }

    /// Decodes one event starting at `buf[pos]`; returns the event and the
    /// position just past it, or `None` on truncated or malformed input.
    pub(crate) fn decode(buf: &[u8], pos: usize) -> Option<(TraceEvent, usize)> {
        struct Reader<'a> {
            buf: &'a [u8],
            p: usize,
        }
        impl Reader<'_> {
            fn next(&mut self, max_bits: u32) -> Option<u64> {
                let (v, np) = unvarint(self.buf, self.p)?;
                if max_bits < 64 && v >= 1u64 << max_bits {
                    return None;
                }
                self.p = np;
                Some(v)
            }
            fn byte(&mut self) -> Option<u8> {
                let b = *self.buf.get(self.p)?;
                self.p += 1;
                Some(b)
            }
        }
        let tag = *buf.get(pos)?;
        let mut r = Reader { buf, p: pos + 1 };
        let ev = match tag {
            0 => TraceEvent::SectionStart {
                thread: ThreadId(r.next(32)? as u32),
                at: Cycles(r.next(64)?),
            },
            1 => TraceEvent::TxBegin {
                thread: ThreadId(r.next(32)? as u32),
                at: Cycles(r.next(64)?),
            },
            2 => TraceEvent::TxCommit {
                thread: ThreadId(r.next(32)? as u32),
                at: Cycles(r.next(64)?),
                read_set: r.next(32)? as u32,
                write_set: r.next(32)? as u32,
                footprint: r.next(32)? as u32,
                retries: r.next(32)? as u32,
            },
            3 => TraceEvent::TxAbort {
                thread: ThreadId(r.next(32)? as u32),
                at: Cycles(r.next(64)?),
                kind: *AbortKind::ALL.get(r.next(8)? as usize)?,
                lost: r.next(64)?,
                footprint: r.next(32)? as u32,
                retries: r.next(32)? as u32,
            },
            4 => TraceEvent::FallbackAcquire {
                thread: ThreadId(r.next(32)? as u32),
                at: Cycles(r.next(64)?),
            },
            5 => TraceEvent::FallbackCommit {
                thread: ThreadId(r.next(32)? as u32),
                at: Cycles(r.next(64)?),
            },
            6 => TraceEvent::Shootdown {
                thread: ThreadId(r.next(32)? as u32),
                at: Cycles(r.next(64)?),
                page: PageId::from_index(r.next(64)?),
                slaves: r.next(32)? as u32,
            },
            7 => TraceEvent::BarrierRelease {
                at: Cycles(r.next(64)?),
                epoch: r.next(32)? as u32,
            },
            8 => {
                let thread = ThreadId(r.next(32)? as u32);
                let at = Cycles(r.next(64)?);
                let addr = Addr::new(r.next(64)?);
                let flags = r.byte()?;
                let site = SiteId(r.next(32)? as u32);
                let kind = if flags & 1 != 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let hint = if flags & 2 != 0 {
                    SafetyHint::Safe
                } else {
                    SafetyHint::Unsafe
                };
                let mut access = MemAccess::load(addr, site).with_hint(hint);
                access.kind = kind;
                TraceEvent::Access {
                    thread,
                    at,
                    access,
                    in_tx: flags & 4 != 0,
                }
            }
            9 => TraceEvent::L1Eviction {
                thread: ThreadId(r.next(32)? as u32),
                at: Cycles(r.next(64)?),
                block: BlockAddr::from_index(r.next(64)?),
            },
            10 => TraceEvent::Coherence {
                thread: ThreadId(r.next(32)? as u32),
                at: Cycles(r.next(64)?),
                block: BlockAddr::from_index(r.next(64)?),
                invalidated: r.next(32)? as u32,
                downgraded: r.next(32)? as u32,
            },
            _ => return None,
        };
        Some((ev, r.p))
    }
}

/// The index of `kind` in [`AbortKind::ALL`] (the stable reporting order).
pub(crate) fn abort_kind_index(kind: AbortKind) -> usize {
    AbortKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("AbortKind::ALL is exhaustive")
}

/// Appends `v` to `out` as a LEB128 varint.
pub(crate) fn varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint at `buf[pos]`; returns the value and the position
/// just past it.
pub(crate) fn unvarint(buf: &[u8], pos: usize) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    let mut p = pos;
    loop {
        let byte = *buf.get(p)?;
        p += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some((v, p));
        }
        shift += 7;
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::SectionStart { thread, at } => {
                write!(f, "[{at}] H{} section", thread.0)
            }
            TraceEvent::TxBegin { thread, at } => write!(f, "[{at}] H{} txbegin", thread.0),
            TraceEvent::TxCommit {
                thread,
                at,
                read_set,
                write_set,
                footprint,
                retries,
            } => write!(
                f,
                "[{at}] H{} commit ({footprint} blocks, r{read_set}/w{write_set}, {retries} retries)",
                thread.0
            ),
            TraceEvent::TxAbort {
                thread,
                at,
                kind,
                lost,
                footprint,
                retries,
            } => write!(
                f,
                "[{at}] H{} abort:{kind} (-{lost} cyc, {footprint} blocks, retry {retries})",
                thread.0
            ),
            TraceEvent::FallbackAcquire { thread, at } => {
                write!(f, "[{at}] H{} fallback-lock", thread.0)
            }
            TraceEvent::FallbackCommit { thread, at } => {
                write!(f, "[{at}] H{} fallback-commit", thread.0)
            }
            TraceEvent::Shootdown {
                thread,
                at,
                page,
                slaves,
            } => write!(f, "[{at}] H{} shootdown {page} ({slaves} slaves)", thread.0),
            TraceEvent::BarrierRelease { at, epoch } => {
                write!(f, "[{at}] barrier release (epoch {epoch})")
            }
            TraceEvent::Access {
                thread,
                at,
                access,
                in_tx,
            } => write!(
                f,
                "[{at}] H{} {access}{}",
                thread.0,
                if in_tx { " [tx]" } else { "" }
            ),
            TraceEvent::L1Eviction { thread, at, block } => {
                write!(f, "[{at}] H{} l1-evict {block}", thread.0)
            }
            TraceEvent::Coherence {
                thread,
                at,
                block,
                invalidated,
                downgraded,
            } => write!(
                f,
                "[{at}] H{} coherence {block} (inv {invalidated}, down {downgraded})",
                thread.0
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        let t = ThreadId(3);
        vec![
            TraceEvent::SectionStart {
                thread: t,
                at: Cycles(0),
            },
            TraceEvent::TxBegin {
                thread: t,
                at: Cycles(1),
            },
            TraceEvent::TxCommit {
                thread: t,
                at: Cycles(u64::MAX - 1),
                read_set: 7,
                write_set: 2,
                footprint: 9,
                retries: 1,
            },
            TraceEvent::TxAbort {
                thread: t,
                at: Cycles(500),
                kind: AbortKind::FalseConflict,
                lost: 12345,
                footprint: 130,
                retries: 4,
            },
            TraceEvent::FallbackAcquire {
                thread: t,
                at: Cycles(501),
            },
            TraceEvent::FallbackCommit {
                thread: t,
                at: Cycles(502),
            },
            TraceEvent::Shootdown {
                thread: t,
                at: Cycles(503),
                page: PageId::from_index(77),
                slaves: 6,
            },
            TraceEvent::BarrierRelease {
                at: Cycles(504),
                epoch: 2,
            },
            TraceEvent::Access {
                thread: t,
                at: Cycles(505),
                access: MemAccess::store(Addr::new(0xdead_beef), SiteId(9))
                    .with_hint(SafetyHint::Safe),
                in_tx: true,
            },
            TraceEvent::Access {
                thread: t,
                at: Cycles(506),
                access: MemAccess::load(Addr::new(64), SiteId::UNKNOWN),
                in_tx: false,
            },
            TraceEvent::L1Eviction {
                thread: t,
                at: Cycles(507),
                block: BlockAddr::from_index(42),
            },
            TraceEvent::Coherence {
                thread: t,
                at: Cycles(508),
                block: BlockAddr::from_index(43),
                invalidated: 2,
                downgraded: 1,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips_every_variant() {
        for ev in samples() {
            let mut buf = Vec::new();
            ev.encode(&mut buf);
            let (back, used) = TraceEvent::decode(&buf, 0).expect("decodes");
            assert_eq!(back, ev);
            assert_eq!(used, buf.len(), "decode consumed the whole encoding");
        }
    }

    #[test]
    fn decode_rejects_truncation_and_bad_tags() {
        let mut buf = Vec::new();
        samples()[2].encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(TraceEvent::decode(&buf[..cut], 0).is_none(), "cut at {cut}");
        }
        assert!(TraceEvent::decode(&[200], 0).is_none());
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            varint(&mut buf, v);
            assert_eq!(unvarint(&buf, 0), Some((v, buf.len())));
        }
    }

    #[test]
    fn accessors_and_display() {
        for ev in samples() {
            let _ = ev.at();
            assert!(!ev.name().is_empty());
            assert!(!ev.to_string().is_empty());
        }
        assert_eq!(
            TraceEvent::BarrierRelease {
                at: Cycles(1),
                epoch: 0
            }
            .thread(),
            None
        );
        let e = TraceEvent::TxAbort {
            thread: ThreadId(2),
            at: Cycles(7),
            kind: AbortKind::Conflict,
            lost: 42,
            footprint: 3,
            retries: 1,
        };
        assert_eq!(e.at(), Cycles(7));
        assert_eq!(e.thread(), Some(ThreadId(2)));
        assert!(e.to_string().contains("abort:conflict"));
    }

    #[test]
    fn encodings_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for ev in samples() {
            let mut buf = Vec::new();
            ev.encode(&mut buf);
            assert!(seen.insert(buf), "duplicate encoding for {ev:?}");
        }
    }
}
