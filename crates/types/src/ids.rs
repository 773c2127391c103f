//! Identifier newtypes: threads, cores, hardware threads, transactions,
//! static access sites, and cycle counts.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A software thread identifier (0-based, dense).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The thread index as a `usize`, for indexing per-thread tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A physical core identifier (0-based, dense).
///
/// With SMT disabled there is one hardware thread per core; with 2-way SMT
/// (used for the L1TM experiments, §VI-D2) two hardware threads share one
/// core and thus one L1 cache.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CoreId(pub u32);

impl CoreId {
    /// The core index as a `usize`, for indexing per-core tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// A hardware thread (SMT context) identifier, dense across the machine.
///
/// Hardware thread `h` runs on core `h / smt_ways` under the simulator's
/// static thread placement.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct HwThreadId(pub u32);

impl fmt::Display for HwThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H{}", self.0)
    }
}

/// A dynamic transaction instance identifier, unique within a simulation run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TxId(pub u64);

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx#{}", self.0)
    }
}

/// A static memory-access site identifier.
///
/// Sites correspond one-to-one with load/store instructions in a workload's
/// `hintm-ir` module; the static classification pass computes a safety verdict
/// per site, and every dynamic access carries the site that issued it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SiteId(pub u32);

impl SiteId {
    /// A site id used for accesses with no corresponding static site
    /// (e.g. runtime-internal accesses); never classified safe statically.
    pub const UNKNOWN: SiteId = SiteId(u32::MAX);
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SiteId::UNKNOWN {
            write!(f, "site?")
        } else {
            write!(f, "site{}", self.0)
        }
    }
}

/// A simulated cycle count or duration.
///
/// Supports saturating-free arithmetic via `Add`/`Sub`; subtraction panics on
/// underflow in debug builds, like the underlying `u64`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// The raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Add<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: u64) -> Cycles {
        Cycles(self.0 + rhs)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycles(10) + Cycles(5);
        assert_eq!(a, Cycles(15));
        assert_eq!(a - Cycles(5), Cycles(10));
        assert_eq!(Cycles(3).saturating_sub(Cycles(5)), Cycles::ZERO);
        let mut c = Cycles(1);
        c += Cycles(2);
        assert_eq!(c, Cycles(3));
        assert_eq!(c + 7u64, Cycles(10));
    }

    #[test]
    fn id_displays() {
        assert_eq!(ThreadId(3).to_string(), "T3");
        assert_eq!(CoreId(1).to_string(), "C1");
        assert_eq!(HwThreadId(9).to_string(), "H9");
        assert_eq!(TxId(42).to_string(), "tx#42");
        assert_eq!(SiteId(7).to_string(), "site7");
        assert_eq!(SiteId::UNKNOWN.to_string(), "site?");
    }

    #[test]
    fn id_indices() {
        assert_eq!(ThreadId(4).index(), 4);
        assert_eq!(CoreId(4).index(), 4);
    }
}
