//! The sink trait every trace consumer implements.

use crate::event::TraceEvent;

/// Receives every [`TraceEvent`] the engine emits, in scheduling order.
///
/// This is the simulator's single observation hook: lifecycle tooling
/// (timelines, metrics, digests) and access-stream consumers (the audit
/// soundness oracle) all implement it. Sinks must never influence the
/// simulation — the engine guarantees statistics are bit-identical with
/// and without a sink attached.
///
/// The one per-access event ([`TraceEvent::Access`]) dominates event
/// volume by orders of magnitude; sinks that only care about lifecycle
/// events return `false` from [`wants_accesses`] and the engine skips
/// constructing access events entirely.
///
/// [`wants_accesses`]: TraceSink::wants_accesses
pub trait TraceSink {
    /// One engine event. Events arrive in deterministic scheduling order;
    /// two runs with the same seed deliver identical sequences.
    fn event(&mut self, ev: &TraceEvent);

    /// Whether this sink wants per-access events. The engine samples this
    /// once per run; returning `false` elides [`TraceEvent::Access`]
    /// construction and delivery on the hot path.
    fn wants_accesses(&self) -> bool {
        true
    }
}
