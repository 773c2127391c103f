//! A per-core TLB caching translations plus HinTM's page safety bits.

use hintm_types::PageId;

/// Empty-slot sentinel; page indices never reach it.
const EMPTY: u64 = u64::MAX;

/// End-of-list sentinel for the recency links.
const NIL: u32 = u32::MAX;

/// Multiplier for the Fibonacci-style multiplicative hash (2⁶⁴/φ).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One cached translation and its place in the recency list.
#[derive(Clone, Copy, Debug)]
struct Entry {
    page: u64,
    /// Next more recently used entry (`NIL` at the head).
    newer: u32,
    /// Next less recently used entry (`NIL` at the tail).
    older: u32,
}

/// A fully-associative LRU TLB.
///
/// Only presence matters to the model: a hit avoids the page-walk latency
/// and, on a safe→unsafe page transition, the set of cores whose TLB holds
/// the page determines the shootdown's slave set.
///
/// Internally an open-addressed index sized to twice the entry capacity
/// (the TLB is probed on every memory access, so lookups avoid `HashMap`'s
/// SipHash), pointing into entries threaded on a doubly linked recency
/// list. A lookup hit or an install moves its entry to the head, so the
/// LRU victim is always the tail: eviction costs O(1), not a scan of the
/// table.
///
/// # Examples
///
/// ```
/// use hintm_vm::Tlb;
/// use hintm_types::PageId;
///
/// let mut tlb = Tlb::new(2);
/// assert!(!tlb.lookup(PageId::from_index(1)));
/// tlb.install(PageId::from_index(1));
/// assert!(tlb.lookup(PageId::from_index(1)));
/// tlb.install(PageId::from_index(2));
/// tlb.install(PageId::from_index(3)); // evicts page 1 (LRU)
/// assert!(!tlb.contains(PageId::from_index(1)));
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Page index per index slot (`EMPTY` when free).
    keys: Vec<u64>,
    /// Entry holding each occupied slot's page.
    slot_entry: Vec<u32>,
    mask: usize,
    shift: u32,
    entries: Vec<Entry>,
    /// Entries released by [`Tlb::invalidate`], reused before new ones.
    free: Vec<u32>,
    /// Most recently used entry.
    head: u32,
    /// Least recently used entry: the next victim.
    tail: u32,
    len: usize,
    capacity: usize,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        let slots = (capacity * 2).next_power_of_two();
        Tlb {
            keys: vec![EMPTY; slots],
            slot_entry: vec![NIL; slots],
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            entries: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    #[inline]
    fn slot_of(&self, key: u64) -> (usize, bool) {
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return (i, true);
            }
            if k == EMPTY {
                return (i, false);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks up `page`, making it the most recently used on a hit.
    #[inline]
    pub fn lookup(&mut self, page: PageId) -> bool {
        let (i, hit) = self.slot_of(page.index());
        if hit {
            self.touch(self.slot_entry[i]);
        }
        hit
    }

    /// Returns `true` if `page` is cached (no recency side effects).
    pub fn contains(&self, page: PageId) -> bool {
        self.slot_of(page.index()).1
    }

    /// Installs `page` as the most recently used, evicting the least
    /// recently used entry if full.
    pub fn install(&mut self, page: PageId) {
        let key = page.index();
        let (i, hit) = self.slot_of(key);
        if hit {
            self.touch(self.slot_entry[i]);
            return;
        }
        let (i, e) = if self.len >= self.capacity {
            let e = self.tail;
            let (victim, found) = self.slot_of(self.entries[e as usize].page);
            debug_assert!(found, "recency tail is indexed");
            self.remove_slot(victim);
            self.unlink(e);
            // The removal may have shifted entries through `page`'s chain;
            // re-probe for the insertion slot.
            (self.slot_of(key).0, e)
        } else {
            let e = self.free.pop().unwrap_or_else(|| {
                self.entries.push(Entry {
                    page: key,
                    newer: NIL,
                    older: NIL,
                });
                (self.entries.len() - 1) as u32
            });
            (i, e)
        };
        self.entries[e as usize].page = key;
        self.push_front(e);
        self.keys[i] = key;
        self.slot_entry[i] = e;
        self.len += 1;
    }

    /// Drops `page` (shootdown). Returns `true` if it was present.
    pub(crate) fn invalidate(&mut self, page: PageId) -> bool {
        let (i, hit) = self.slot_of(page.index());
        if hit {
            let e = self.slot_entry[i];
            self.unlink(e);
            self.free.push(e);
            self.remove_slot(i);
        }
        hit
    }

    /// Moves entry `e` to the head of the recency list.
    #[inline]
    fn touch(&mut self, e: u32) {
        if self.head != e {
            self.unlink(e);
            self.push_front(e);
        }
    }

    fn unlink(&mut self, e: u32) {
        let Entry { newer, older, .. } = self.entries[e as usize];
        match newer {
            NIL => self.head = older,
            n => self.entries[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.entries[o as usize].newer = newer,
        }
    }

    fn push_front(&mut self, e: u32) {
        self.entries[e as usize].newer = NIL;
        self.entries[e as usize].older = self.head;
        match self.head {
            NIL => self.tail = e,
            h => self.entries[h as usize].newer = e,
        }
        self.head = e;
    }

    /// Backward-shift removal keeping every probe chain gap-free.
    fn remove_slot(&mut self, mut hole: usize) {
        self.keys[hole] = EMPTY;
        self.len -= 1;
        let mut j = (hole + 1) & self.mask;
        while self.keys[j] != EMPTY {
            let home = self.home(self.keys[j]);
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.keys[hole] = self.keys[j];
                self.slot_entry[hole] = self.slot_entry[j];
                self.keys[j] = EMPTY;
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm_types::rng::SmallRng;

    fn pg(i: u64) -> PageId {
        PageId::from_index(i)
    }

    #[test]
    fn hit_after_install() {
        let mut t = Tlb::new(4);
        assert!(!t.lookup(pg(1)));
        t.install(pg(1));
        assert!(t.lookup(pg(1)));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.install(pg(1));
        t.install(pg(2));
        t.lookup(pg(1)); // 1 is MRU
        t.install(pg(3));
        assert!(t.contains(pg(1)));
        assert!(!t.contains(pg(2)));
        assert!(t.contains(pg(3)));
        assert_eq!(t.len, 2);
    }

    #[test]
    fn reinstall_does_not_evict() {
        let mut t = Tlb::new(2);
        t.install(pg(1));
        t.install(pg(2));
        t.install(pg(1)); // refresh, no eviction
        assert!(t.contains(pg(2)));
    }

    #[test]
    fn invalidate_drops_one_entry() {
        let mut t = Tlb::new(4);
        t.install(pg(1));
        t.install(pg(2));
        assert!(t.invalidate(pg(1)));
        assert!(!t.invalidate(pg(1)));
        assert_eq!(t.len, 1);
    }

    #[test]
    fn colliding_pages_survive_eviction_chains() {
        // Many installs over a tiny TLB force evictions through shared
        // probe chains; the survivor set must match LRU order exactly.
        let mut t = Tlb::new(4);
        for i in 0..64u64 {
            t.install(pg(i));
        }
        assert_eq!(t.len, 4);
        for i in 0..60u64 {
            assert!(!t.contains(pg(i)), "page {i} should have been evicted");
        }
        for i in 60..64u64 {
            assert!(t.contains(pg(i)), "page {i} is among the 4 most recent");
        }
    }

    /// The previous TLB: every lookup and install draws a unique tick, a
    /// hit or install stamps the entry with it, and a full TLB evicts the
    /// entry with the minimum stamp, found by scanning the whole table.
    struct TickTlb {
        keys: Vec<u64>,
        lrus: Vec<u64>,
        mask: usize,
        shift: u32,
        len: usize,
        capacity: usize,
        tick: u64,
    }

    impl TickTlb {
        fn new(capacity: usize) -> Self {
            let slots = (capacity * 2).next_power_of_two();
            TickTlb {
                keys: vec![EMPTY; slots],
                lrus: vec![0; slots],
                mask: slots - 1,
                shift: 64 - slots.trailing_zeros(),
                len: 0,
                capacity,
                tick: 0,
            }
        }

        fn home(&self, key: u64) -> usize {
            (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
        }

        fn slot_of(&self, key: u64) -> (usize, bool) {
            let mut i = self.home(key);
            loop {
                let k = self.keys[i];
                if k == key {
                    return (i, true);
                }
                if k == EMPTY {
                    return (i, false);
                }
                i = (i + 1) & self.mask;
            }
        }

        fn lookup(&mut self, page: PageId) -> bool {
            self.tick += 1;
            let (i, hit) = self.slot_of(page.index());
            if hit {
                self.lrus[i] = self.tick;
            }
            hit
        }

        fn contains(&self, page: PageId) -> bool {
            self.slot_of(page.index()).1
        }

        fn install(&mut self, page: PageId) {
            self.tick += 1;
            let (i, hit) = self.slot_of(page.index());
            if hit {
                self.lrus[i] = self.tick;
                return;
            }
            if self.len >= self.capacity {
                let victim = (0..=self.mask)
                    .filter(|&j| self.keys[j] != EMPTY)
                    .min_by_key(|&j| self.lrus[j])
                    .expect("full TLB has entries");
                self.remove_slot(victim);
            }
            let (i, _) = self.slot_of(page.index());
            self.keys[i] = page.index();
            self.lrus[i] = self.tick;
            self.len += 1;
        }

        fn invalidate(&mut self, page: PageId) -> bool {
            let (i, hit) = self.slot_of(page.index());
            if hit {
                self.remove_slot(i);
            }
            hit
        }

        fn remove_slot(&mut self, mut hole: usize) {
            self.keys[hole] = EMPTY;
            self.len -= 1;
            let mut j = (hole + 1) & self.mask;
            while self.keys[j] != EMPTY {
                let home = self.home(self.keys[j]);
                if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                    self.keys[hole] = self.keys[j];
                    self.lrus[hole] = self.lrus[j];
                    self.keys[j] = EMPTY;
                    hole = j;
                }
                j = (j + 1) & self.mask;
            }
        }
    }

    #[test]
    fn recency_list_matches_the_tick_and_min_scan_reference() {
        for capacity in [1usize, 4, 64] {
            for seed in 0..8u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut tlb = Tlb::new(capacity);
                let mut reference = TickTlb::new(capacity);
                // Twice as many pages as entries keeps the TLB full and
                // hits frequent.
                let pages = 2 * capacity as u64 + 1;
                for step in 0..4000 {
                    let p = pg(rng.gen_range(0..pages));
                    let what = match rng.gen_range(0..10u32) {
                        0..=4 => {
                            let hit = tlb.lookup(p);
                            assert_eq!(hit, reference.lookup(p), "lookup hit");
                            "lookup"
                        }
                        5..=8 => {
                            tlb.install(p);
                            reference.install(p);
                            "install"
                        }
                        _ => {
                            let hit = tlb.invalidate(p);
                            assert_eq!(hit, reference.invalidate(p), "invalidate hit");
                            "invalidate"
                        }
                    };
                    assert_eq!(tlb.len, reference.len);
                    for q in 0..pages {
                        assert_eq!(
                            tlb.contains(pg(q)),
                            reference.contains(pg(q)),
                            "capacity {capacity} seed {seed} step {step} ({what} {}): page {q}",
                            p.index()
                        );
                    }
                }
            }
        }
    }
}
