//! A chained hash table with simulated bucket and node addresses.

use crate::ds::splitmix64;
use crate::{AccessSink, AddressSpace};
use hintm_types::{Addr, SiteId, ThreadId};

const KEY_OFF: u64 = 0;
const VAL_OFF: u64 = 8;
const NEXT_OFF: u64 = 16;

/// The static access sites a hash-table operation reports through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HashMapSites {
    /// Load of the bucket head pointer.
    pub bucket: SiteId,
    /// Loads of chain nodes while traversing.
    pub traverse: SiteId,
    /// Stores initializing a fresh node.
    pub node_init: SiteId,
    /// Stores updating links (bucket head or a node's `next`).
    pub link: SiteId,
}

impl HashMapSites {
    /// All sites mapped to a single id (tests, simple workloads).
    pub fn uniform(site: SiteId) -> Self {
        HashMapSites {
            bucket: site,
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
    addr: Addr,
    next: Option<usize>,
}

/// A chained hash table, as used by genome's segment table, intruder's
/// fragment map and vacation's customer table.
///
/// The bucket array occupies contiguous simulated memory (8 bytes per
/// bucket); chain nodes are heap allocations of `node_size` bytes.
///
/// # Examples
///
/// ```
/// use hintm_mem::{AddressSpace, VecSink};
/// use hintm_mem::ds::{HashMapSites, SimHashMap};
/// use hintm_types::{SiteId, ThreadId};
///
/// let mut space = AddressSpace::new(1);
/// let mut map = SimHashMap::new(&mut space, 64, 32);
/// let sites = HashMapSites::uniform(SiteId(0));
/// let mut sink = VecSink::new();
/// assert!(map.insert(7, 70, ThreadId(0), &mut space, &mut sink, sites));
/// assert_eq!(map.get(7, &mut sink, sites), Some(70));
/// ```
#[derive(Clone, Debug)]
pub struct SimHashMap {
    buckets_base: Addr,
    bucket_stride: u64,
    heads: Vec<Option<usize>>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    node_size: u64,
    len: usize,
}

impl SimHashMap {
    /// Creates a table with `num_buckets` buckets (bucket array in the
    /// global segment) and `node_size`-byte chain nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets` is zero or `node_size < 24`.
    pub fn new(space: &mut AddressSpace, num_buckets: usize, node_size: u64) -> Self {
        Self::with_bucket_stride(space, num_buckets, node_size, 8)
    }

    /// Like [`SimHashMap::new`] with an explicit distance in bytes between
    /// bucket head cells. A 64-byte stride puts each bucket on its own
    /// cache block (padded heads), eliminating false sharing between
    /// buckets at the cost of footprint.
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets` is zero, `node_size < 24`, or
    /// `bucket_stride < 8`.
    pub fn with_bucket_stride(
        space: &mut AddressSpace,
        num_buckets: usize,
        node_size: u64,
        bucket_stride: u64,
    ) -> Self {
        assert!(num_buckets > 0, "need at least one bucket");
        assert!(node_size >= 24, "node must hold key/value/next");
        assert!(bucket_stride >= 8, "bucket heads are 8-byte pointers");
        let buckets_base = space.alloc_global(num_buckets as u64 * bucket_stride);
        SimHashMap {
            buckets_base,
            bucket_stride,
            heads: vec![None; num_buckets],
            nodes: Vec::new(),
            free: Vec::new(),
            node_size,
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_of(&self, key: u64) -> usize {
        (splitmix64(key) % self.heads.len() as u64) as usize
    }

    fn bucket_addr(&self, b: usize) -> Addr {
        self.buckets_base.offset(b as u64 * self.bucket_stride)
    }

    /// Inserts `(key, value)` if absent; returns `false` (after emitting the
    /// probe trace) when the key already exists.
    pub fn insert(
        &mut self,
        key: u64,
        value: u64,
        tid: ThreadId,
        space: &mut AddressSpace,
        sink: &mut impl AccessSink,
        sites: HashMapSites,
    ) -> bool {
        self.insert_with(key, value, tid, space, sink, sites, |_, _| {})
    }

    /// Like [`SimHashMap::insert`], invoking `on_visit(sink, visited_key)`
    /// for every chain node compared along the probe. Workloads use this to
    /// model key comparisons that dereference out-of-node data (e.g.
    /// genome's segment strings).
    #[allow(clippy::too_many_arguments)]
    pub fn insert_with<S: AccessSink>(
        &mut self,
        key: u64,
        value: u64,
        tid: ThreadId,
        space: &mut AddressSpace,
        sink: &mut S,
        sites: HashMapSites,
        mut on_visit: impl FnMut(&mut S, u64),
    ) -> bool {
        let b = self.bucket_of(key);
        sink.load(self.bucket_addr(b), sites.bucket);
        let mut cur = self.heads[b];
        while let Some(c) = cur {
            sink.load(self.nodes[c].addr.offset(KEY_OFF), sites.traverse);
            on_visit(sink, self.nodes[c].key);
            if self.nodes[c].key == key {
                return false;
            }
            cur = self.nodes[c].next;
        }
        let addr = space.halloc(tid, self.node_size);
        let idx = if let Some(i) = self.free.pop() {
            self.nodes[i] = Node {
                key,
                value,
                addr,
                next: self.heads[b],
            };
            i
        } else {
            self.nodes.push(Node {
                key,
                value,
                addr,
                next: self.heads[b],
            });
            self.nodes.len() - 1
        };
        sink.store(addr.offset(KEY_OFF), sites.node_init);
        sink.store(addr.offset(VAL_OFF), sites.node_init);
        sink.store(addr.offset(NEXT_OFF), sites.node_init);
        self.heads[b] = Some(idx);
        sink.store(self.bucket_addr(b), sites.link);
        self.len += 1;
        true
    }

    /// Looks up `key`, emitting the bucket load and one load per chain node
    /// visited.
    pub fn get(&self, key: u64, sink: &mut impl AccessSink, sites: HashMapSites) -> Option<u64> {
        let b = self.bucket_of(key);
        sink.load(self.bucket_addr(b), sites.bucket);
        let mut cur = self.heads[b];
        while let Some(c) = cur {
            sink.load(self.nodes[c].addr.offset(KEY_OFF), sites.traverse);
            if self.nodes[c].key == key {
                sink.load(self.nodes[c].addr.offset(VAL_OFF), sites.traverse);
                return Some(self.nodes[c].value);
            }
            cur = self.nodes[c].next;
        }
        None
    }

    /// Returns `true` if `key` is present (same trace as [`SimHashMap::get`]
    /// minus the value load).
    pub fn contains(&self, key: u64, sink: &mut impl AccessSink, sites: HashMapSites) -> bool {
        let b = self.bucket_of(key);
        sink.load(self.bucket_addr(b), sites.bucket);
        let mut cur = self.heads[b];
        while let Some(c) = cur {
            sink.load(self.nodes[c].addr.offset(KEY_OFF), sites.traverse);
            if self.nodes[c].key == key {
                return true;
            }
            cur = self.nodes[c].next;
        }
        false
    }

    /// Updates the value for an existing `key`, returning the old value.
    pub fn update(
        &mut self,
        key: u64,
        value: u64,
        sink: &mut impl AccessSink,
        sites: HashMapSites,
    ) -> Option<u64> {
        let b = self.bucket_of(key);
        sink.load(self.bucket_addr(b), sites.bucket);
        let mut cur = self.heads[b];
        while let Some(c) = cur {
            sink.load(self.nodes[c].addr.offset(KEY_OFF), sites.traverse);
            if self.nodes[c].key == key {
                sink.store(self.nodes[c].addr.offset(VAL_OFF), sites.link);
                let old = self.nodes[c].value;
                self.nodes[c].value = value;
                return Some(old);
            }
            cur = self.nodes[c].next;
        }
        None
    }

    /// Removes `key`, returning its value and freeing the node.
    pub fn remove(
        &mut self,
        key: u64,
        tid: ThreadId,
        space: &mut AddressSpace,
        sink: &mut impl AccessSink,
        sites: HashMapSites,
    ) -> Option<u64> {
        let b = self.bucket_of(key);
        sink.load(self.bucket_addr(b), sites.bucket);
        let mut prev: Option<usize> = None;
        let mut cur = self.heads[b];
        while let Some(c) = cur {
            sink.load(self.nodes[c].addr.offset(KEY_OFF), sites.traverse);
            if self.nodes[c].key == key {
                match prev {
                    None => {
                        self.heads[b] = self.nodes[c].next;
                        sink.store(self.bucket_addr(b), sites.link);
                    }
                    Some(p) => {
                        self.nodes[p].next = self.nodes[c].next;
                        sink.store(self.nodes[p].addr.offset(NEXT_OFF), sites.link);
                    }
                }
                let value = self.nodes[c].value;
                space.hfree(tid, self.nodes[c].addr, self.node_size);
                self.free.push(c);
                self.len -= 1;
                return Some(value);
            }
            prev = Some(c);
            cur = self.nodes[c].next;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountingSink, NullSink, VecSink};

    fn setup() -> (AddressSpace, SimHashMap, HashMapSites) {
        let mut sp = AddressSpace::new(2);
        let m = SimHashMap::new(&mut sp, 16, 32);
        (sp, m, HashMapSites::uniform(SiteId(1)))
    }

    #[test]
    fn insert_get_round_trip() {
        let (mut sp, mut m, st) = setup();
        for k in 0..50u64 {
            assert!(m.insert(k, k * 2, ThreadId(0), &mut sp, &mut NullSink, st));
        }
        assert_eq!(m.len(), 50);
        for k in 0..50u64 {
            assert_eq!(m.get(k, &mut NullSink, st), Some(k * 2));
        }
        assert_eq!(m.get(999, &mut NullSink, st), None);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (mut sp, mut m, st) = setup();
        assert!(m.insert(1, 1, ThreadId(0), &mut sp, &mut NullSink, st));
        assert!(!m.insert(1, 2, ThreadId(0), &mut sp, &mut NullSink, st));
        assert_eq!(m.get(1, &mut NullSink, st), Some(1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn get_emits_bucket_then_chain_loads() {
        let (mut sp, mut m, st) = setup();
        m.insert(1, 10, ThreadId(0), &mut sp, &mut NullSink, st);
        let mut sink = VecSink::new();
        m.get(1, &mut sink, st);
        assert!(sink.loads() >= 2, "bucket + node key (+ value)");
        assert_eq!(sink.stores(), 0);
    }

    #[test]
    fn update_stores_value_in_place() {
        let (mut sp, mut m, st) = setup();
        m.insert(1, 10, ThreadId(0), &mut sp, &mut NullSink, st);
        let mut sink = CountingSink::default();
        assert_eq!(m.update(1, 99, &mut sink, st), Some(10));
        assert_eq!(sink.stores, 1);
        assert_eq!(m.get(1, &mut NullSink, st), Some(99));
        assert_eq!(m.update(42, 0, &mut NullSink, st), None);
    }

    #[test]
    fn remove_frees_node() {
        let (mut sp, mut m, st) = setup();
        m.insert(1, 10, ThreadId(0), &mut sp, &mut NullSink, st);
        m.insert(2, 20, ThreadId(0), &mut sp, &mut NullSink, st);
        let freed = m.nodes.iter().find(|n| n.key == 1).unwrap().addr;
        assert_eq!(
            m.remove(1, ThreadId(0), &mut sp, &mut NullSink, st),
            Some(10)
        );
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(1, &mut NullSink, st), None);
        assert_eq!(m.remove(1, ThreadId(0), &mut sp, &mut NullSink, st), None);
        // The next allocation of the node's size reuses its address.
        assert_eq!(sp.halloc(ThreadId(0), m.node_size), freed);
    }

    #[test]
    fn contains_matches_get() {
        let (mut sp, mut m, st) = setup();
        m.insert(5, 1, ThreadId(0), &mut sp, &mut NullSink, st);
        assert!(m.contains(5, &mut NullSink, st));
        assert!(!m.contains(6, &mut NullSink, st));
    }

    #[test]
    fn chains_grow_probe_length() {
        let mut sp = AddressSpace::new(1);
        // Single bucket forces one chain.
        let mut m = SimHashMap::new(&mut sp, 1, 32);
        let st = HashMapSites::uniform(SiteId(0));
        for k in 0..20u64 {
            m.insert(k, k, ThreadId(0), &mut sp, &mut NullSink, st);
        }
        let mut deep = CountingSink::default();
        // Key 0 was inserted first → now at chain tail.
        m.get(0, &mut deep, st);
        assert!(deep.loads > 10);
    }

    #[test]
    fn insert_with_reports_visited_keys() {
        let mut sp = AddressSpace::new(1);
        let mut m = SimHashMap::new(&mut sp, 1, 32); // one bucket: one chain
        let st = HashMapSites::uniform(SiteId(0));
        for k in [10u64, 20, 30] {
            m.insert(k, k, ThreadId(0), &mut sp, &mut NullSink, st);
        }
        let mut visited = Vec::new();
        m.insert_with(99, 0, ThreadId(0), &mut sp, &mut NullSink, st, |_, k| {
            visited.push(k)
        });
        assert_eq!(visited.len(), 3, "every chain node compared");
        visited.sort_unstable();
        assert_eq!(visited, vec![10, 20, 30]);
    }
}
