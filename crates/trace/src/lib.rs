//! Structured event tracing for the HinTM reproduction.
//!
//! The simulation engine emits one typed [`TraceEvent`] per interesting
//! occurrence — transaction lifecycle transitions, memory accesses, cache
//! evictions, coherence invalidations, fallback-lock traffic, barrier
//! epochs — into whatever [`TraceSink`] the caller supplies. Everything
//! else in this crate is a sink:
//!
//! * [`TraceBuffer`] — a bounded event log keeping a run's first events,
//!   with a text timeline renderer;
//! * [`TraceMetrics`] — counters and power-of-two histograms (abort-cause
//!   breakdown, read/write-set size distributions, retry counts, HTM
//!   buffer occupancy high-water mark);
//! * [`DigestSink`] — a streaming FNV-64 digest over the canonical event
//!   encoding, stable across runs and platforms;
//! * [`Recording`] — buffer + metrics + digest composed, summarized as a
//!   [`TraceSummary`].
//!
//! Recorded events export as Chrome `trace_event` JSON ([`chrome_trace`])
//! or as a compact binary log ([`binlog`]) whose payload bytes are exactly
//! the digest's input, so `fnv64(payload) == DigestSink::digest()`.
//!
//! The crate sits between `hintm-types` and the simulator: it defines the
//! observation vocabulary and depends on nothing else, so every layer
//! (engine, audit oracle, CLI, runner) can speak it without cycles.
//!
//! # Examples
//!
//! ```
//! use hintm_trace::{Recording, TraceEvent, TraceSink};
//! use hintm_types::{Cycles, ThreadId};
//!
//! let mut rec = Recording::new(1024);
//! rec.event(&TraceEvent::TxBegin { thread: ThreadId(0), at: Cycles(5) });
//! rec.event(&TraceEvent::TxCommit {
//!     thread: ThreadId(0),
//!     at: Cycles(9),
//!     read_set: 2,
//!     write_set: 1,
//!     footprint: 3,
//!     retries: 0,
//! });
//! let s = rec.summary();
//! assert_eq!(s.commits, 1);
//! assert_eq!(s.events, 2);
//! ```

pub mod binlog;
pub mod buffer;
pub mod chrome;
pub mod digest;
pub mod event;
pub mod metrics;
pub mod recording;
pub mod sink;

pub use binlog::{read_binlog, write_binlog, write_binlog_to, BinlogError};
pub use buffer::TraceBuffer;
pub use chrome::{chrome_trace, chrome_trace_to};
pub use digest::{DigestSink, Fnv64};
pub use event::TraceEvent;
pub use metrics::{HistSummary, Histogram, TraceMetrics};
pub use recording::{Recording, TraceSummary};
pub use sink::TraceSink;
