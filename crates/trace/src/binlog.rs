//! The compact binary log format: a fixed header followed by the
//! concatenated canonical event encodings.
//!
//! The payload bytes are exactly what [`DigestSink`](crate::DigestSink)
//! hashes, so `Fnv64::hash(payload)` of a written log always equals the
//! digest reported by the run that produced it — a log file can be
//! re-verified offline.

use crate::digest::Fnv64;
use crate::event::{unvarint, varint, TraceEvent};
use std::fmt;
use std::io;

/// Log file magic.
pub(crate) const MAGIC: [u8; 4] = *b"HTRC";
/// Current format version.
pub(crate) const VERSION: u8 = 1;

/// Why a binary log failed to parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinlogError {
    /// The file does not start with the format's magic bytes.
    BadMagic,
    /// The version byte is not the format version this build writes.
    BadVersion(u8),
    /// The header or an event was cut short.
    Truncated,
    /// An event at this byte offset failed to decode.
    Malformed(usize),
    /// Bytes remain after the declared event count.
    TrailingBytes(usize),
}

impl fmt::Display for BinlogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinlogError::BadMagic => write!(f, "not a HTRC trace log"),
            BinlogError::BadVersion(v) => write!(f, "unsupported trace log version {v}"),
            BinlogError::Truncated => write!(f, "truncated trace log"),
            BinlogError::Malformed(off) => write!(f, "malformed event at byte {off}"),
            BinlogError::TrailingBytes(n) => write!(f, "{n} trailing bytes after last event"),
        }
    }
}

impl std::error::Error for BinlogError {}

/// Serializes events: magic, version, varint event count, then each
/// event's canonical encoding.
pub fn write_binlog(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + events.len() * 8);
    write_binlog_to(events, &mut out).expect("writing to a Vec cannot fail");
    out
}

/// Streams the binary log for `events` into `w` — header first, then each
/// event's canonical encoding as it is produced, so a large stream never
/// has to fit in memory at once. The bytes written are identical to
/// [`write_binlog`].
///
/// # Errors
///
/// Returns the underlying I/O error if `w` rejects a write.
pub fn write_binlog_to<W: io::Write>(events: &[TraceEvent], w: &mut W) -> io::Result<()> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    varint(&mut buf, events.len() as u64);
    w.write_all(&buf)?;
    for ev in events {
        buf.clear();
        ev.encode(&mut buf);
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Parses a log written by [`write_binlog`], validating header, count and
/// every event.
pub fn read_binlog(bytes: &[u8]) -> Result<Vec<TraceEvent>, BinlogError> {
    if bytes.len() < 5 {
        return Err(BinlogError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(BinlogError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(BinlogError::BadVersion(bytes[4]));
    }
    let (count, mut pos) = unvarint(bytes, 5).ok_or(BinlogError::Truncated)?;
    let mut events = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        if pos >= bytes.len() {
            return Err(BinlogError::Truncated);
        }
        let (ev, next) = TraceEvent::decode(bytes, pos).ok_or(BinlogError::Malformed(pos))?;
        events.push(ev);
        pos = next;
    }
    if pos != bytes.len() {
        return Err(BinlogError::TrailingBytes(bytes.len() - pos));
    }
    Ok(events)
}

/// The FNV-1a digest of a log's payload (the bytes after the event count)
/// — equal to [`DigestSink::digest`](crate::DigestSink::digest) of the run
/// that wrote it.
pub fn payload_digest(bytes: &[u8]) -> Result<u64, BinlogError> {
    if bytes.len() < 5 {
        return Err(BinlogError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(BinlogError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(BinlogError::BadVersion(bytes[4]));
    }
    let (_, pos) = unvarint(bytes, 5).ok_or(BinlogError::Truncated)?;
    Ok(Fnv64::hash(&bytes[pos..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::DigestSink;
    use crate::sink::TraceSink;
    use hintm_types::{AbortKind, Cycles, ThreadId};

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TxBegin {
                thread: ThreadId(0),
                at: Cycles(1),
            },
            TraceEvent::TxAbort {
                thread: ThreadId(0),
                at: Cycles(9),
                kind: AbortKind::Conflict,
                lost: 8,
                footprint: 3,
                retries: 1,
            },
            TraceEvent::BarrierRelease {
                at: Cycles(10),
                epoch: 0,
            },
        ]
    }

    #[test]
    fn streamed_output_matches_buffered() {
        let evs = sample();
        let mut streamed = Vec::new();
        write_binlog_to(&evs, &mut streamed).unwrap();
        assert_eq!(streamed, write_binlog(&evs));
    }

    #[test]
    fn round_trips() {
        let evs = sample();
        let bytes = write_binlog(&evs);
        assert_eq!(read_binlog(&bytes).unwrap(), evs);
        assert_eq!(read_binlog(&write_binlog(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn payload_digest_matches_digest_sink() {
        let evs = sample();
        let mut sink = DigestSink::new();
        for e in &evs {
            sink.event(e);
        }
        let bytes = write_binlog(&evs);
        assert_eq!(payload_digest(&bytes).unwrap(), sink.digest());
    }

    #[test]
    fn rejects_corrupt_logs() {
        let evs = sample();
        let bytes = write_binlog(&evs);
        assert_eq!(read_binlog(&[]), Err(BinlogError::Truncated));
        assert_eq!(read_binlog(b"NOPE\x01\x00"), Err(BinlogError::BadMagic));
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert_eq!(read_binlog(&bad), Err(BinlogError::BadVersion(9)));
        assert_eq!(payload_digest(&bad), Err(BinlogError::BadVersion(9)));
        let cut = &bytes[..bytes.len() - 1];
        assert!(matches!(
            read_binlog(cut),
            Err(BinlogError::Malformed(_) | BinlogError::Truncated)
        ));
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(read_binlog(&extra), Err(BinlogError::TrailingBytes(1)));
        // Count says one more event than the body holds.
        let mut short = Vec::new();
        short.extend_from_slice(&MAGIC);
        short.push(VERSION);
        varint(&mut short, 1);
        assert_eq!(read_binlog(&short), Err(BinlogError::Truncated));
        for e in [
            BinlogError::BadMagic,
            BinlogError::BadVersion(2),
            BinlogError::Truncated,
            BinlogError::Malformed(7),
            BinlogError::TrailingBytes(1),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
