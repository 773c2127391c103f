//! The [`AccessSink`] trait: how data-structure operations report the memory
//! accesses they perform.

use hintm_types::{AccessKind, Addr, MemAccess, SiteId};

/// A consumer of simulated memory accesses.
///
/// Data structures in [`crate::ds`] take a `&mut impl AccessSink` and report
/// every load/store their operation performs, tagged with the static access
/// site of the issuing instruction. Workloads implement this to build
/// transaction bodies; tests use [`VecSink`] or [`CountingSink`].
pub trait AccessSink {
    /// Reports a load of `addr` issued by static site `site`.
    fn load(&mut self, addr: Addr, site: SiteId);

    /// Reports a store to `addr` issued by static site `site`.
    fn store(&mut self, addr: Addr, site: SiteId);

    /// Reports pure compute work of `cycles` cycles between accesses.
    ///
    /// The default implementation ignores compute; sinks that build timed
    /// transaction bodies override it.
    fn compute(&mut self, cycles: u64) {
        let _ = cycles;
    }
}

/// An [`AccessSink`] that records every access, for tests and tracing.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// All recorded accesses, in program order.
    pub accesses: Vec<MemAccess>,
    /// Total compute cycles reported.
    pub(crate) compute_cycles: u64,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded loads.
    pub fn loads(&self) -> usize {
        self.accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Load)
            .count()
    }

    /// Number of recorded stores.
    pub fn stores(&self) -> usize {
        self.accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Store)
            .count()
    }
}

impl AccessSink for VecSink {
    fn load(&mut self, addr: Addr, site: SiteId) {
        self.accesses.push(MemAccess::load(addr, site));
    }

    fn store(&mut self, addr: Addr, site: SiteId) {
        self.accesses.push(MemAccess::store(addr, site));
    }

    fn compute(&mut self, cycles: u64) {
        self.compute_cycles += cycles;
    }
}

/// An [`AccessSink`] that only counts, for cheap assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Loads seen.
    pub(crate) loads: u64,
    /// Stores seen.
    pub(crate) stores: u64,
    /// Compute cycles seen.
    pub(crate) compute_cycles: u64,
}

impl AccessSink for CountingSink {
    fn load(&mut self, _addr: Addr, _site: SiteId) {
        self.loads += 1;
    }

    fn store(&mut self, _addr: Addr, _site: SiteId) {
        self.stores += 1;
    }

    fn compute(&mut self, cycles: u64) {
        self.compute_cycles += cycles;
    }
}

/// An [`AccessSink`] that discards everything, for pure logical operations
/// (e.g. pre-populating a data structure outside the measured region).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl AccessSink for NullSink {
    fn load(&mut self, _addr: Addr, _site: SiteId) {}
    fn store(&mut self, _addr: Addr, _site: SiteId) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::new();
        s.load(Addr::new(0x40), SiteId(1));
        s.store(Addr::new(0x80), SiteId(2));
        s.compute(7);
        assert_eq!(s.loads(), 1);
        assert_eq!(s.stores(), 1);
        assert_eq!(s.compute_cycles, 7);
        assert_eq!(s.accesses[0].site, SiteId(1));
        assert_eq!(s.accesses[1].kind, AccessKind::Store);
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        s.load(Addr::new(1), SiteId(0));
        s.load(Addr::new(2), SiteId(0));
        s.store(Addr::new(3), SiteId(0));
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
    }

    #[test]
    fn null_sink_ignores() {
        let mut s = NullSink;
        s.load(Addr::new(1), SiteId(0));
        s.store(Addr::new(2), SiteId(0));
        s.compute(5);
    }
}
