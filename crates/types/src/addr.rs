//! Simulated virtual addresses and their cache-block / page granularity views.

use std::fmt;

/// Cache block size in bytes (Table II: 64 B blocks).
pub const BLOCK_SIZE: usize = 64;
/// log2 of [`BLOCK_SIZE`].
pub const BLOCK_SHIFT: u32 = 6;
/// Page size in bytes (4 KiB pages, §II-B).
pub const PAGE_SIZE: usize = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// A byte-granularity simulated virtual address.
///
/// Addresses are plain 64-bit values inside the simulated address space
/// managed by `hintm-mem`. The newtype keeps byte addresses, cache-block
/// addresses and page identifiers statically distinct.
///
/// # Examples
///
/// ```
/// use hintm_types::Addr;
/// let a = Addr::new(4096 + 65);
/// assert_eq!(a.page().index(), 1);
/// assert_eq!(a.block().index(), 65);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw 64-bit value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw 64-bit value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache block containing this address.
    #[inline]
    pub const fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_SHIFT)
    }

    /// Returns the page containing this address.
    #[inline]
    pub const fn page(self) -> PageId {
        PageId(self.0 >> PAGE_SHIFT)
    }

    /// Returns the address advanced by `bytes`.
    ///
    /// # Panics
    ///
    /// Panics on overflow of the 64-bit address space (debug builds).
    #[inline]
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-block-granularity address (byte address divided by [`BLOCK_SIZE`]).
///
/// This is the granularity at which HTM transactional state is tracked and
/// at which coherence conflicts are detected.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a block index (byte address >> 6).
    #[inline]
    pub const fn from_index(index: u64) -> Self {
        BlockAddr(index)
    }

    /// The block index (byte address >> 6).
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block({:#x})", self.0)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block {:#x}", self.0)
    }
}

/// A page-granularity identifier (byte address divided by [`PAGE_SIZE`]).
///
/// HinTM's dynamic classification mechanism tracks inter-thread sharing at
/// this granularity (§III-B).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page id from a page index (byte address >> 12).
    #[inline]
    pub const fn from_index(index: u64) -> Self {
        PageId(index)
    }

    /// The page index (byte address >> 12).
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page({:#x})", self.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page {:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_page_of_zero() {
        let a = Addr::new(0);
        assert_eq!(a.block().index(), 0);
        assert_eq!(a.page().index(), 0);
    }

    #[test]
    fn block_boundaries() {
        assert_eq!(Addr::new(63).block().index(), 0);
        assert_eq!(Addr::new(64).block().index(), 1);
        assert_eq!(Addr::new(127).block().index(), 1);
        assert_eq!(Addr::new(128).block().index(), 2);
    }

    #[test]
    fn page_boundaries() {
        assert_eq!(Addr::new(4095).page().index(), 0);
        assert_eq!(Addr::new(4096).page().index(), 1);
    }

    #[test]
    fn offsets() {
        let a = Addr::new(4096 + 70);
        assert_eq!(a.offset(10).raw(), 4096 + 80);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{:?}", Addr::new(0)).is_empty());
        assert!(!format!("{}", BlockAddr::from_index(1)).is_empty());
        assert!(!format!("{}", PageId::from_index(1)).is_empty());
    }
}
