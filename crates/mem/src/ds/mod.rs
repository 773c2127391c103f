//! Trace-emitting data structures over simulated memory.
//!
//! Each structure stores its logical contents in ordinary Rust memory but
//! places every node/element at a simulated address obtained from an
//! [`crate::AddressSpace`]. Operations take an [`crate::AccessSink`] and
//! report exactly the loads and stores the equivalent C implementation
//! would perform (pointer chase per node, field reads, link updates), so a
//! transaction's cache-block footprint — the quantity that determines HTM
//! capacity aborts — has the right shape.
//!
//! Operations also take *site* arguments: the static access-site identifiers
//! of the issuing instructions in the workload's `hintm-ir` module, so the
//! static classifier's verdicts map onto dynamic accesses.

pub mod array;
pub mod grid;
pub mod hashmap;
pub mod treap;

pub use array::SimArray;
pub use grid::SimGrid;
pub use hashmap::{HashMapSites, SimHashMap};
pub use treap::{SimTreap, TreapSites};

/// SplitMix64: the deterministic hash used for treap priorities and hash
/// table bucket selection. Public so tests can predict layouts.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Low bits differ across consecutive inputs (bucket quality).
        let a = splitmix64(100) & 0xff;
        let b = splitmix64(101) & 0xff;
        let c = splitmix64(102) & 0xff;
        assert!(!(a == b && b == c));
    }
}
