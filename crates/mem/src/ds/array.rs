//! A fixed-element-size array at a simulated address.

use crate::{AccessSink, AddressSpace};
use hintm_types::{Addr, SiteId, ThreadId};

/// A contiguous array of `len` elements of `elem_size` bytes each.
///
/// Element values are stored logically as `u64` words; the simulated layout
/// is `base + i * elem_size`. Used for centroid tables (kmeans), adjacency
/// arrays (ssca2), database rows (tpcc) and reservation tables (vacation).
///
/// # Examples
///
/// ```
/// use hintm_mem::{AddressSpace, VecSink};
/// use hintm_mem::ds::SimArray;
/// use hintm_types::{SiteId, ThreadId};
///
/// let mut space = AddressSpace::new(1);
/// let mut arr = SimArray::new_global(&mut space, 16, 64);
/// let mut sink = VecSink::new();
/// arr.write(3, 42, &mut sink, SiteId(0));
/// assert_eq!(arr.read(3, &mut sink, SiteId(1)), 42);
/// assert_eq!(sink.accesses.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SimArray {
    base: Addr,
    elem_size: u64,
    values: Vec<u64>,
}

impl SimArray {
    /// Allocates an array of `len` elements in the global segment.
    ///
    /// # Panics
    ///
    /// Panics if `elem_size` is zero.
    pub fn new_global(space: &mut AddressSpace, len: usize, elem_size: u64) -> Self {
        assert!(elem_size > 0, "element size must be positive");
        let base = space.alloc_global(len as u64 * elem_size);
        SimArray {
            base,
            elem_size,
            values: vec![0; len],
        }
    }

    /// Allocates an array of `len` elements in `tid`'s heap arena.
    pub fn new_heap(space: &mut AddressSpace, tid: ThreadId, len: usize, elem_size: u64) -> Self {
        assert!(elem_size > 0, "element size must be positive");
        let base = space.halloc(tid, len as u64 * elem_size);
        SimArray {
            base,
            elem_size,
            values: vec![0; len],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The simulated address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub(crate) fn addr_of(&self, i: usize) -> Addr {
        assert!(i < self.values.len(), "index {i} out of bounds");
        self.base.offset(i as u64 * self.elem_size)
    }

    /// Reads element `i`, emitting a load.
    pub fn read(&self, i: usize, sink: &mut impl AccessSink, site: SiteId) -> u64 {
        sink.load(self.addr_of(i), site);
        self.values[i]
    }

    /// Writes element `i`, emitting a store.
    pub fn write(&mut self, i: usize, value: u64, sink: &mut impl AccessSink, site: SiteId) {
        sink.store(self.addr_of(i), site);
        self.values[i] = value;
    }

    /// Adds `delta` to element `i`, emitting a load and a store.
    pub fn fetch_add(
        &mut self,
        i: usize,
        delta: u64,
        sink: &mut impl AccessSink,
        load_site: SiteId,
        store_site: SiteId,
    ) -> u64 {
        let old = self.read(i, sink, load_site);
        sink.store(self.addr_of(i), store_site);
        self.values[i] = old.wrapping_add(delta);
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecSink;
    use hintm_types::BLOCK_SIZE;

    fn arr(elem: u64) -> (AddressSpace, SimArray) {
        let mut s = AddressSpace::new(1);
        let a = SimArray::new_global(&mut s, 100, elem);
        (s, a)
    }

    #[test]
    fn addresses_are_strided() {
        let (_s, a) = arr(24);
        assert_eq!(a.addr_of(0), a.base);
        assert_eq!(a.addr_of(2).raw(), a.base.raw() + 48);
    }

    #[test]
    fn read_write_round_trip() {
        let (_s, mut a) = arr(8);
        let mut sink = VecSink::new();
        a.write(7, 99, &mut sink, SiteId(1));
        assert_eq!(a.read(7, &mut sink, SiteId(2)), 99);
        assert_eq!(sink.stores(), 1);
        assert_eq!(sink.loads(), 1);
        assert_eq!(sink.accesses[0].addr, a.addr_of(7));
    }

    #[test]
    fn fetch_add_emits_load_then_store() {
        let (_s, mut a) = arr(8);
        let mut sink = VecSink::new();
        a.values[0] = 10;
        let old = a.fetch_add(0, 3, &mut sink, SiteId(1), SiteId(2));
        assert_eq!(old, 10);
        assert_eq!(a.values[0], 13);
        assert_eq!(sink.loads(), 1);
        assert_eq!(sink.stores(), 1);
    }

    #[test]
    fn block_footprint_matches_element_size() {
        let (_s, a) = arr(BLOCK_SIZE as u64);
        let mut sink = VecSink::new();
        for i in 0..10 {
            a.read(i, &mut sink, SiteId(0));
        }
        let blocks: std::collections::BTreeSet<_> =
            sink.accesses.iter().map(|a| a.addr.block()).collect();
        assert_eq!(blocks.len(), 10);
    }

    #[test]
    fn heap_array_lands_in_owner_arena() {
        let mut s = AddressSpace::new(4);
        let a = SimArray::new_heap(&mut s, ThreadId(3), 4, 8);
        assert_eq!(s.segment_of(a.base), crate::SegmentKind::Heap(ThreadId(3)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let (_s, a) = arr(8);
        a.addr_of(100);
    }
}
