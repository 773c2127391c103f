//! Offline sharing profiler for the Fig. 1 motivation metrics.
//!
//! Classifies memory *regions* (cache blocks or pages) over a whole
//! execution: a region is **safe** if it never experiences read-write
//! sharing between two or more threads (§II-B). Also counts the fraction of
//! transactional read accesses that target safe regions.

use hintm_types::{AccessKind, Addr, ThreadId};
use std::collections::HashMap;

#[derive(Clone, Copy, Debug, Default)]
struct RegionInfo {
    readers: u64, // thread bitmask
    writers: u64, // thread bitmask
}

impl RegionInfo {
    /// No read-write sharing: at most one thread ever accessed it, or it
    /// was only ever read.
    fn is_safe(&self) -> bool {
        let all = self.readers | self.writers;
        all.count_ones() <= 1 || self.writers == 0
    }
}

/// Records every access of a run at block and page granularity and reports
/// the Fig. 1 metrics.
///
/// # Examples
///
/// ```
/// use hintm_vm::SharingProfiler;
/// use hintm_types::{AccessKind, Addr, ThreadId};
///
/// let mut p = SharingProfiler::new();
/// p.record(ThreadId(0), Addr::new(0x1000), AccessKind::Load, true);
/// p.record(ThreadId(1), Addr::new(0x1000), AccessKind::Load, true);
/// // Read-only sharing is safe.
/// assert_eq!(p.safe_page_fraction(), 1.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SharingProfiler {
    blocks: HashMap<u64, RegionInfo>,
    pages: HashMap<u64, RegionInfo>,
    tx_reads: u64,
    tx_reads_safe_page: u64,
    tx_reads_safe_block: u64,
    tx_read_log: Vec<(u64, u64)>, // (block, page) of each transactional read
}

impl SharingProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access. `in_tx` marks accesses made inside transactions
    /// (only those count toward the safe-read-access metrics).
    pub fn record(&mut self, tid: ThreadId, addr: Addr, kind: AccessKind, in_tx: bool) {
        let bit = 1u64 << (tid.index() as u64 % 64);
        let block = addr.block().index();
        let page = addr.page().index();
        for (map, key) in [(&mut self.blocks, block), (&mut self.pages, page)] {
            let info = map.entry(key).or_default();
            match kind {
                AccessKind::Load => info.readers |= bit,
                AccessKind::Store => info.writers |= bit,
            }
        }
        if in_tx && kind == AccessKind::Load {
            self.tx_reads += 1;
            self.tx_read_log.push((block, page));
        }
    }

    /// Finalizes the safe-read counters against the *final* region
    /// classification (the paper's metric is over the whole execution).
    /// Call once after the run; also called implicitly by the getters.
    fn finalize(&mut self) {
        if self.tx_read_log.is_empty() {
            return;
        }
        for (block, page) in self.tx_read_log.drain(..) {
            if self.blocks.get(&block).is_some_and(RegionInfo::is_safe) {
                self.tx_reads_safe_block += 1;
            }
            if self.pages.get(&page).is_some_and(RegionInfo::is_safe) {
                self.tx_reads_safe_page += 1;
            }
        }
    }

    /// Fraction of touched 64 B blocks that are safe over the execution.
    pub fn safe_block_fraction(&self) -> f64 {
        frac(
            self.blocks.values().filter(|r| r.is_safe()).count(),
            self.blocks.len(),
        )
    }

    /// Fraction of touched 4 KiB pages that are safe over the execution.
    pub fn safe_page_fraction(&self) -> f64 {
        frac(
            self.pages.values().filter(|r| r.is_safe()).count(),
            self.pages.len(),
        )
    }

    /// Fraction of transactional reads that target safe pages.
    pub fn safe_tx_read_fraction_page(&mut self) -> f64 {
        self.finalize();
        frac(self.tx_reads_safe_page as usize, self.tx_reads as usize)
    }

    /// Fraction of transactional reads that target safe blocks.
    pub fn safe_tx_read_fraction_block(&mut self) -> f64 {
        self.finalize();
        frac(self.tx_reads_safe_block as usize, self.tx_reads as usize)
    }
}

fn frac(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: ThreadId = ThreadId(0);
    const Y: ThreadId = ThreadId(1);

    #[test]
    fn private_regions_are_safe() {
        let mut p = SharingProfiler::new();
        p.record(X, Addr::new(0x1000), AccessKind::Store, true);
        p.record(X, Addr::new(0x1000), AccessKind::Load, true);
        assert_eq!(p.safe_page_fraction(), 1.0);
        assert_eq!(p.safe_block_fraction(), 1.0);
    }

    #[test]
    fn read_write_sharing_is_unsafe() {
        let mut p = SharingProfiler::new();
        p.record(X, Addr::new(0x1000), AccessKind::Store, true);
        p.record(Y, Addr::new(0x1000), AccessKind::Load, true);
        assert_eq!(p.safe_page_fraction(), 0.0);
    }

    #[test]
    fn read_only_sharing_is_safe() {
        let mut p = SharingProfiler::new();
        p.record(X, Addr::new(0x1000), AccessKind::Load, true);
        p.record(Y, Addr::new(0x1000), AccessKind::Load, true);
        assert_eq!(p.safe_page_fraction(), 1.0);
    }

    #[test]
    fn block_and_page_granularity_differ() {
        let mut p = SharingProfiler::new();
        // Same page, different blocks: X writes block 0, Y writes block 1.
        p.record(X, Addr::new(0x1000), AccessKind::Store, true);
        p.record(Y, Addr::new(0x1040), AccessKind::Store, true);
        assert_eq!(p.safe_block_fraction(), 1.0, "each block single-writer");
        assert_eq!(p.safe_page_fraction(), 0.0, "page is write-shared");
    }

    #[test]
    fn tx_read_fractions_use_final_classification() {
        let mut p = SharingProfiler::new();
        // X reads a page inside a TX; later Y writes it → retroactively unsafe.
        p.record(X, Addr::new(0x2000), AccessKind::Load, true);
        p.record(Y, Addr::new(0x2000), AccessKind::Store, false);
        assert_eq!(p.safe_tx_read_fraction_page(), 0.0);
        assert_eq!(p.tx_reads, 1);
    }

    #[test]
    fn non_tx_reads_do_not_count() {
        let mut p = SharingProfiler::new();
        p.record(X, Addr::new(0x2000), AccessKind::Load, false);
        assert_eq!(p.tx_reads, 0);
        assert_eq!(p.safe_tx_read_fraction_page(), 0.0);
    }

    #[test]
    fn mixed_fractions() {
        let mut p = SharingProfiler::new();
        p.record(X, Addr::new(0x1000), AccessKind::Load, true); // safe page
        p.record(X, Addr::new(0x2000), AccessKind::Load, true); // becomes unsafe
        p.record(Y, Addr::new(0x2000), AccessKind::Store, true);
        assert!((p.safe_page_fraction() - 0.5).abs() < 1e-12);
        assert!((p.safe_tx_read_fraction_page() - 0.5).abs() < 1e-12);
    }
}
