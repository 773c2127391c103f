//! Replay-determinism and zero-interference tests for the trace layer.
//!
//! Two properties protect the tracing subsystem's core claims, for every
//! workload in the suite:
//!
//! * **passivity** — attaching a sink never changes the simulation
//!   outcome: `RunStats` are bit-identical traced vs untraced;
//! * **replay determinism** — running the same workload twice with the
//!   same seed produces bit-identical event streams (equal digests and
//!   equal full metric summaries), while a different seed produces a
//!   different stream.
//!
//! A third test closes the export loop: the binary log round-trips the
//! event stream and its payload hash equals the streaming digest.

use hintm::{Cell, WORKLOAD_NAMES};
use hintm_trace::binlog::payload_digest;
use hintm_trace::{read_binlog, write_binlog};

#[test]
fn tracing_changes_no_simulation_outcome() {
    for name in WORKLOAD_NAMES {
        let plain = Cell::new(name).run().unwrap();
        let (traced, _) = Cell::new(name).run_traced(1024).unwrap();
        assert_eq!(
            format!("{:?}", plain.stats),
            format!("{:?}", traced.stats),
            "{name}: tracing changed the simulation outcome"
        );
        assert!(traced.trace.is_some(), "{name}: summary missing");
        assert!(plain.trace.is_none());
    }
}

#[test]
fn same_seed_replays_bit_identically() {
    for name in WORKLOAD_NAMES {
        let (ra, a) = Cell::new(name).seed(7).run_traced(256).unwrap();
        let (rb, b) = Cell::new(name).seed(7).run_traced(256).unwrap();
        assert_eq!(a.digest(), b.digest(), "{name}: replay digest diverged");
        // The full summary (every counter and histogram) must agree too,
        // not just the stream hash.
        assert_eq!(ra.trace, rb.trace, "{name}: metric summaries diverged");

        let (_, c) = Cell::new(name).seed(8).run_traced(256).unwrap();
        assert_ne!(
            a.digest(),
            c.digest(),
            "{name}: the digest is insensitive to the seed"
        );
    }
}

#[test]
fn binlog_round_trips_and_hashes_to_the_stream_digest() {
    // Big enough to retain kmeans' whole run (~52k events): the binary
    // log's payload bytes are exactly the digest's input, so the two
    // hashes coincide only when nothing was dropped.
    let (_, rec) = Cell::new("kmeans").run_traced(1 << 22).unwrap();
    assert_eq!(rec.dropped(), 0, "raise the cap: events were dropped");
    let events = rec.events();
    let bytes = write_binlog(&events);
    assert_eq!(read_binlog(&bytes).unwrap(), events);
    assert_eq!(payload_digest(&bytes).unwrap(), rec.digest());
}
