//! Hardware Transactional Memory engine for the HinTM reproduction.
//!
//! Implements the four baseline HTM configurations evaluated in the paper
//! (§V):
//!
//! * **P8** — a dedicated 64-entry fully-associative transactional buffer
//!   shared by readset and writeset, modeled after IBM POWER8's TMCAM.
//! * **P8S** — P8 extended with a hardware *signature* (PBX hashing over a
//!   1-kbit bitvector) that absorbs readset overflow: reads evicted from
//!   the buffer are hashed into the signature, which makes the readset
//!   effectively unbounded but introduces *false-conflict* aborts from
//!   aliasing, and does nothing for writeset capacity.
//! * **L1TM** — transactional state tracked with read/write bits in the
//!   32 KiB 8-way L1 itself; a transactionally-marked line that spills from
//!   the L1 (capacity *or* set-conflict miss) aborts the transaction.
//! * **InfCap** — unbounded tracking; never capacity-aborts. Used as the
//!   upper bound for capacity-abort elimination.
//!
//! The HinTM extension is uniform across all of them: accesses carrying a
//! safety hint (static, from the compiler, or dynamic, from the page-level
//! classifier) skip tracking entirely ([`HtmThread::on_access`] with
//! `safe = true`), which is the whole §IV-C hardware change.
//!
//! Conflict *detection* is eager and driven by the simulator; this crate
//! answers the membership queries ("does thread X's readset cover block
//! B?") including signature false positives, keeps precise shadow sets so
//! aborts can be classified as genuine or false, and keeps the
//! [`ConflictDir`] that finds every conflicting peer in one probe.
//!
//! # Examples
//!
//! ```
//! use hintm_htm::{HtmConfig, HtmKind, HtmThread};
//! use hintm_types::{AccessKind, Addr};
//!
//! let mut t = HtmThread::new(&HtmConfig::new(HtmKind::P8));
//! t.begin();
//! let block = Addr::new(0x1000).block();
//! t.on_access(block, AccessKind::Store, false).unwrap();
//! assert!(t.writes_block(block));
//! t.commit();
//! assert_eq!(t.stats().commits, 1);
//! ```

pub mod blockset;
pub mod conflict;
pub mod controller;
pub mod signature;
pub mod tracker;

pub use blockset::BlockSet;
pub use conflict::ConflictDir;
pub use controller::{HtmConfig, HtmKind, HtmThread, HtmThreadStats, TxPhase};
pub use signature::Signature;
pub use tracker::{CapacityAbort, Tracker};
