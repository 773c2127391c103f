//! A treap (randomized balanced BST) with simulated node addresses.
//!
//! STAMP's vacation, yada and bayes use red-black trees; a treap with
//! deterministic hash-derived priorities produces the same expected O(log n)
//! root-to-leaf pointer chase per operation while staying simple and fully
//! deterministic.

use crate::ds::splitmix64;
use crate::{AccessSink, AddressSpace};
use hintm_types::{Addr, SiteId, ThreadId};

const KEY_OFF: u64 = 0;
const VAL_OFF: u64 = 8;
const LEFT_OFF: u64 = 16;
const RIGHT_OFF: u64 = 24;

/// The static access sites a treap operation reports through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreapSites {
    /// Loads of node keys/children while descending.
    pub traverse: SiteId,
    /// Stores initializing a fresh node.
    pub node_init: SiteId,
    /// Stores rewriting child links (rotations, attach, detach).
    pub link: SiteId,
}

impl TreapSites {
    /// All sites mapped to a single id (tests, simple workloads).
    pub fn uniform(site: SiteId) -> Self {
        TreapSites {
            traverse: site,
            node_init: site,
            link: site,
        }
    }
}

#[derive(Clone, Debug)]
struct Node {
    key: u64,
    value: u64,
    prio: u64,
    addr: Addr,
    left: Option<usize>,
    right: Option<usize>,
}

/// An ordered map implemented as a deterministic treap over simulated memory.
///
/// # Examples
///
/// ```
/// use hintm_mem::{AddressSpace, VecSink};
/// use hintm_mem::ds::{SimTreap, TreapSites};
/// use hintm_types::{SiteId, ThreadId};
///
/// let mut space = AddressSpace::new(1);
/// let mut t = SimTreap::new(48);
/// let sites = TreapSites::uniform(SiteId(0));
/// let mut sink = VecSink::new();
/// for k in 0..100 {
///     t.insert(k, k + 1, ThreadId(0), &mut space, &mut sink, sites);
/// }
/// assert_eq!(t.get(42, &mut sink, sites), Some(43));
/// assert_eq!(t.len(), 100);
/// ```
#[derive(Clone, Debug)]
pub struct SimTreap {
    nodes: Vec<Node>,
    root: Option<usize>,
    free: Vec<usize>,
    node_size: u64,
    len: usize,
}

impl SimTreap {
    /// Creates an empty treap with `node_size`-byte nodes.
    ///
    /// # Panics
    ///
    /// Panics if `node_size < 32` (key/value/left/right).
    pub fn new(node_size: u64) -> Self {
        assert!(node_size >= 32, "node must hold key/value/left/right");
        SimTreap {
            nodes: Vec::new(),
            root: None,
            free: Vec::new(),
            node_size,
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the treap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up `key`, emitting one load per node on the search path.
    pub fn get(&self, key: u64, sink: &mut impl AccessSink, sites: TreapSites) -> Option<u64> {
        let mut cur = self.root;
        while let Some(c) = cur {
            let n = &self.nodes[c];
            sink.load(n.addr.offset(KEY_OFF), sites.traverse);
            if key == n.key {
                sink.load(n.addr.offset(VAL_OFF), sites.traverse);
                return Some(n.value);
            }
            cur = if key < n.key { n.left } else { n.right };
        }
        None
    }

    /// Updates the value of an existing key in place, returning the old one.
    pub fn update(
        &mut self,
        key: u64,
        value: u64,
        sink: &mut impl AccessSink,
        sites: TreapSites,
    ) -> Option<u64> {
        let mut cur = self.root;
        while let Some(c) = cur {
            sink.load(self.nodes[c].addr.offset(KEY_OFF), sites.traverse);
            if key == self.nodes[c].key {
                sink.store(self.nodes[c].addr.offset(VAL_OFF), sites.link);
                let old = self.nodes[c].value;
                self.nodes[c].value = value;
                return Some(old);
            }
            cur = if key < self.nodes[c].key {
                self.nodes[c].left
            } else {
                self.nodes[c].right
            };
        }
        None
    }

    fn alloc_node(
        &mut self,
        key: u64,
        value: u64,
        tid: ThreadId,
        space: &mut AddressSpace,
    ) -> usize {
        let addr = space.halloc(tid, self.node_size);
        let node = Node {
            key,
            value,
            prio: splitmix64(key ^ PRIO_SEED),
            addr,
            left: None,
            right: None,
        };
        if let Some(i) = self.free.pop() {
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Recursive insertion returning the new subtree root.
    fn insert_at(
        &mut self,
        cur: Option<usize>,
        idx: usize,
        sink: &mut impl AccessSink,
        sites: TreapSites,
    ) -> (usize, bool) {
        let Some(c) = cur else {
            return (idx, true);
        };
        sink.load(self.nodes[c].addr.offset(KEY_OFF), sites.traverse);
        let key = self.nodes[idx].key;
        if key == self.nodes[c].key {
            return (c, false);
        }
        if key < self.nodes[c].key {
            let (sub, inserted) = self.insert_at(self.nodes[c].left, idx, sink, sites);
            if !inserted {
                return (c, false);
            }
            self.nodes[c].left = Some(sub);
            sink.store(self.nodes[c].addr.offset(LEFT_OFF), sites.link);
            if self.nodes[sub].prio > self.nodes[c].prio {
                // Rotate right.
                self.nodes[c].left = self.nodes[sub].right;
                self.nodes[sub].right = Some(c);
                sink.store(self.nodes[c].addr.offset(LEFT_OFF), sites.link);
                sink.store(self.nodes[sub].addr.offset(RIGHT_OFF), sites.link);
                (sub, true)
            } else {
                (c, true)
            }
        } else {
            let (sub, inserted) = self.insert_at(self.nodes[c].right, idx, sink, sites);
            if !inserted {
                return (c, false);
            }
            self.nodes[c].right = Some(sub);
            sink.store(self.nodes[c].addr.offset(RIGHT_OFF), sites.link);
            if self.nodes[sub].prio > self.nodes[c].prio {
                // Rotate left.
                self.nodes[c].right = self.nodes[sub].left;
                self.nodes[sub].left = Some(c);
                sink.store(self.nodes[c].addr.offset(RIGHT_OFF), sites.link);
                sink.store(self.nodes[sub].addr.offset(LEFT_OFF), sites.link);
                (sub, true)
            } else {
                (c, true)
            }
        }
    }

    /// Inserts `(key, value)` if absent. Returns `false` when the key exists
    /// (the probe trace is still emitted; the allocated node is recycled).
    pub fn insert(
        &mut self,
        key: u64,
        value: u64,
        tid: ThreadId,
        space: &mut AddressSpace,
        sink: &mut impl AccessSink,
        sites: TreapSites,
    ) -> bool {
        let idx = self.alloc_node(key, value, tid, space);
        let addr = self.nodes[idx].addr;
        sink.store(addr.offset(KEY_OFF), sites.node_init);
        sink.store(addr.offset(VAL_OFF), sites.node_init);
        sink.store(addr.offset(LEFT_OFF), sites.node_init);
        sink.store(addr.offset(RIGHT_OFF), sites.node_init);
        let (new_root, inserted) = self.insert_at(self.root, idx, sink, sites);
        if inserted {
            self.root = Some(new_root);
            self.len += 1;
        } else {
            space.hfree(tid, addr, self.node_size);
            self.free.push(idx);
        }
        inserted
    }

    fn merge(
        &mut self,
        a: Option<usize>,
        b: Option<usize>,
        sink: &mut impl AccessSink,
        sites: TreapSites,
    ) -> Option<usize> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(l), Some(r)) => {
                if self.nodes[l].prio >= self.nodes[r].prio {
                    let merged = self.merge(self.nodes[l].right, Some(r), sink, sites);
                    self.nodes[l].right = merged;
                    sink.store(self.nodes[l].addr.offset(RIGHT_OFF), sites.link);
                    Some(l)
                } else {
                    let merged = self.merge(Some(l), self.nodes[r].left, sink, sites);
                    self.nodes[r].left = merged;
                    sink.store(self.nodes[r].addr.offset(LEFT_OFF), sites.link);
                    Some(r)
                }
            }
        }
    }

    /// Removes `key`, returning its value and freeing the node.
    pub fn remove(
        &mut self,
        key: u64,
        tid: ThreadId,
        space: &mut AddressSpace,
        sink: &mut impl AccessSink,
        sites: TreapSites,
    ) -> Option<u64> {
        let mut parent: Option<(usize, bool)> = None; // (parent idx, went_left)
        let mut cur = self.root;
        while let Some(c) = cur {
            sink.load(self.nodes[c].addr.offset(KEY_OFF), sites.traverse);
            if key == self.nodes[c].key {
                let merged = self.merge(self.nodes[c].left, self.nodes[c].right, sink, sites);
                match parent {
                    None => self.root = merged,
                    Some((p, true)) => {
                        self.nodes[p].left = merged;
                        sink.store(self.nodes[p].addr.offset(LEFT_OFF), sites.link);
                    }
                    Some((p, false)) => {
                        self.nodes[p].right = merged;
                        sink.store(self.nodes[p].addr.offset(RIGHT_OFF), sites.link);
                    }
                }
                let value = self.nodes[c].value;
                space.hfree(tid, self.nodes[c].addr, self.node_size);
                self.free.push(c);
                self.len -= 1;
                return Some(value);
            }
            let went_left = key < self.nodes[c].key;
            parent = Some((c, went_left));
            cur = if went_left {
                self.nodes[c].left
            } else {
                self.nodes[c].right
            };
        }
        None
    }

    /// Smallest key ≥ `key`, emitting the search-path loads.
    pub fn ceiling(
        &self,
        key: u64,
        sink: &mut impl AccessSink,
        sites: TreapSites,
    ) -> Option<(u64, u64)> {
        let mut best: Option<usize> = None;
        let mut cur = self.root;
        while let Some(c) = cur {
            sink.load(self.nodes[c].addr.offset(KEY_OFF), sites.traverse);
            if self.nodes[c].key >= key {
                best = Some(c);
                cur = self.nodes[c].left;
            } else {
                cur = self.nodes[c].right;
            }
        }
        best.map(|b| (self.nodes[b].key, self.nodes[b].value))
    }

    /// In-order keys without tracing (verification helper).
    pub fn keys(&self) -> Vec<u64> {
        fn walk(t: &SimTreap, n: Option<usize>, out: &mut Vec<u64>) {
            if let Some(i) = n {
                walk(t, t.nodes[i].left, out);
                out.push(t.nodes[i].key);
                walk(t, t.nodes[i].right, out);
            }
        }
        let mut out = Vec::with_capacity(self.len);
        walk(self, self.root, &mut out);
        out
    }
}

/// Fixed seed mixed into key hashes for priorities, so priorities are
/// uncorrelated with bucket hashes computed from the same keys.
const PRIO_SEED: u64 = 0x7e3a_9d41_c0ff_ee00;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountingSink, NullSink};

    fn setup() -> (AddressSpace, SimTreap, TreapSites) {
        (
            AddressSpace::new(2),
            SimTreap::new(48),
            TreapSites::uniform(SiteId(1)),
        )
    }

    #[test]
    fn insert_get_many() {
        let (mut sp, mut t, st) = setup();
        for k in 0..500u64 {
            assert!(t.insert(k * 7, k, ThreadId(0), &mut sp, &mut NullSink, st));
        }
        assert_eq!(t.len(), 500);
        for k in 0..500u64 {
            assert_eq!(t.get(k * 7, &mut NullSink, st), Some(k));
        }
        assert_eq!(t.get(1, &mut NullSink, st), None);
    }

    #[test]
    fn keys_are_sorted() {
        let (mut sp, mut t, st) = setup();
        for k in [5u64, 3, 9, 1, 7] {
            t.insert(k, k, ThreadId(0), &mut sp, &mut NullSink, st);
        }
        assert_eq!(t.keys(), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn duplicate_insert_rejected_and_recycled() {
        let (mut sp, mut t, st) = setup();
        assert!(t.insert(1, 10, ThreadId(0), &mut sp, &mut NullSink, st));
        assert!(!t.insert(1, 20, ThreadId(0), &mut sp, &mut NullSink, st));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(1, &mut NullSink, st), Some(10));
        // The rejected node (index 1) went back to the heap: the next
        // allocation of its size reuses its address.
        let freed = t.nodes[1].addr;
        assert_eq!(sp.halloc(ThreadId(0), t.node_size), freed);
    }

    #[test]
    fn balanced_depth_is_logarithmic() {
        let (mut sp, mut t, st) = setup();
        let n = 4096u64;
        for k in 0..n {
            t.insert(k, k, ThreadId(0), &mut sp, &mut NullSink, st);
        }
        // Expected depth ~ 2 ln n ≈ 17; allow generous slack but reject a
        // degenerate linear chain. A lookup loads one key per node on its
        // search path, plus the value.
        let max_path = (0..n)
            .map(|k| {
                let mut sink = CountingSink::default();
                t.get(k, &mut sink, st);
                sink.loads - 1
            })
            .max()
            .unwrap();
        assert!(max_path < 64, "treap degenerated: depth {max_path}");
    }

    #[test]
    fn remove_preserves_order() {
        let (mut sp, mut t, st) = setup();
        for k in 0..50u64 {
            t.insert(k, k, ThreadId(0), &mut sp, &mut NullSink, st);
        }
        for k in (0..50u64).step_by(2) {
            assert_eq!(
                t.remove(k, ThreadId(0), &mut sp, &mut NullSink, st),
                Some(k)
            );
        }
        assert_eq!(t.len(), 25);
        let keys = t.keys();
        assert!(keys.iter().all(|k| k % 2 == 1));
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t.remove(0, ThreadId(0), &mut sp, &mut NullSink, st), None);
    }

    #[test]
    fn update_in_place() {
        let (mut sp, mut t, st) = setup();
        t.insert(4, 40, ThreadId(0), &mut sp, &mut NullSink, st);
        assert_eq!(t.update(4, 44, &mut NullSink, st), Some(40));
        assert_eq!(t.get(4, &mut NullSink, st), Some(44));
        assert_eq!(t.update(5, 50, &mut NullSink, st), None);
    }

    #[test]
    fn ceiling_queries() {
        let (mut sp, mut t, st) = setup();
        for k in [10u64, 20, 30] {
            t.insert(k, k, ThreadId(0), &mut sp, &mut NullSink, st);
        }
        assert_eq!(t.ceiling(15, &mut NullSink, st), Some((20, 20)));
        assert_eq!(t.ceiling(20, &mut NullSink, st), Some((20, 20)));
        assert_eq!(t.ceiling(31, &mut NullSink, st), None);
        assert_eq!(t.ceiling(0, &mut NullSink, st), Some((10, 10)));
    }
}
