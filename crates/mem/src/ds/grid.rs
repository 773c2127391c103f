//! A 3-D routing grid, as used by labyrinth.

use crate::{AccessSink, AddressSpace};
use hintm_types::{Addr, SiteId, ThreadId, BLOCK_SIZE};

/// A 3-D grid of 8-byte cells over contiguous simulated memory.
///
/// Labyrinth's transactions copy the whole shared grid into a thread-private
/// grid ([`SimGrid::copy_from`]), run breadth-first expansion over the
/// private copy, then write the chosen path back to the shared grid. The
/// private copy is precisely the thread-private scratchpad traffic HinTM's
/// classifiers identify as safe.
///
/// # Examples
///
/// ```
/// use hintm_mem::{AddressSpace, VecSink};
/// use hintm_mem::ds::SimGrid;
/// use hintm_types::{SiteId, ThreadId};
///
/// let mut space = AddressSpace::new(1);
/// let shared = SimGrid::new(&mut space, ThreadId(0), 8, 8, 2);
/// let mut private = SimGrid::new(&mut space, ThreadId(0), 8, 8, 2);
/// let mut sink = VecSink::new();
/// private.copy_from(&shared, &mut sink, SiteId(0), SiteId(1));
/// assert!(sink.loads() > 0 && sink.stores() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct SimGrid {
    base: Addr,
    x: usize,
    y: usize,
    z: usize,
    cells: Vec<u64>,
}

const CELL_SIZE: u64 = 8;

impl SimGrid {
    /// Allocates an `x × y × z` grid page-aligned in `tid`'s heap arena.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(space: &mut AddressSpace, tid: ThreadId, x: usize, y: usize, z: usize) -> Self {
        assert!(x > 0 && y > 0 && z > 0, "grid dimensions must be positive");
        let n = x * y * z;
        let base = space.halloc_pages(tid, n as u64 * CELL_SIZE);
        SimGrid {
            base,
            x,
            y,
            z,
            cells: vec![0; n],
        }
    }

    /// Allocates an `x × y × z` grid page-aligned in the global segment
    /// (shared structures initialized before the parallel phase).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new_global(space: &mut AddressSpace, x: usize, y: usize, z: usize) -> Self {
        assert!(x > 0 && y > 0 && z > 0, "grid dimensions must be positive");
        let n = x * y * z;
        let base = space.alloc_global_page_aligned(n as u64 * CELL_SIZE);
        SimGrid {
            base,
            x,
            y,
            z,
            cells: vec![0; n],
        }
    }

    /// Grid dimensions `(x, y, z)`.
    pub(crate) fn dims(&self) -> (usize, usize, usize) {
        (self.x, self.y, self.z)
    }

    fn index(&self, x: usize, y: usize, z: usize) -> usize {
        assert!(
            x < self.x && y < self.y && z < self.z,
            "grid index out of bounds"
        );
        (z * self.y + y) * self.x + x
    }

    /// The simulated address of cell `(x, y, z)`.
    pub(crate) fn addr_of(&self, x: usize, y: usize, z: usize) -> Addr {
        self.base.offset(self.index(x, y, z) as u64 * CELL_SIZE)
    }

    /// Reads a cell, emitting a load.
    pub fn read(
        &self,
        x: usize,
        y: usize,
        z: usize,
        sink: &mut impl AccessSink,
        site: SiteId,
    ) -> u64 {
        sink.load(self.addr_of(x, y, z), site);
        self.cells[self.index(x, y, z)]
    }

    /// Writes a cell, emitting a store.
    pub fn write(
        &mut self,
        x: usize,
        y: usize,
        z: usize,
        value: u64,
        sink: &mut impl AccessSink,
        site: SiteId,
    ) {
        sink.store(self.addr_of(x, y, z), site);
        let i = self.index(x, y, z);
        self.cells[i] = value;
    }

    /// Writes a cell without tracing (setup code).
    pub fn poke(&mut self, x: usize, y: usize, z: usize, value: u64) {
        let i = self.index(x, y, z);
        self.cells[i] = value;
    }

    /// Copies the entire contents of `src` into `self`, emitting one load
    /// and one store *per cache block* (memcpy moves whole lines; per-word
    /// traffic would inflate access counts 8× without changing footprints).
    ///
    /// # Panics
    ///
    /// Panics if the grids' dimensions differ.
    pub fn copy_from(
        &mut self,
        src: &SimGrid,
        sink: &mut impl AccessSink,
        load_site: SiteId,
        store_site: SiteId,
    ) {
        assert_eq!(
            self.dims(),
            src.dims(),
            "grid copy requires equal dimensions"
        );
        self.cells.copy_from_slice(&src.cells);
        let bytes = self.cells.len() as u64 * CELL_SIZE;
        let mut off = 0u64;
        while off < bytes {
            sink.load(src.base.offset(off), load_site);
            sink.store(self.base.offset(off), store_site);
            off += BLOCK_SIZE as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullSink, VecSink};

    fn setup() -> (AddressSpace, SimGrid) {
        let mut sp = AddressSpace::new(2);
        let g = SimGrid::new(&mut sp, ThreadId(0), 4, 4, 2);
        (sp, g)
    }

    #[test]
    fn addressing_is_row_major_and_disjoint() {
        let (_sp, g) = setup();
        let a = g.addr_of(0, 0, 0);
        let b = g.addr_of(1, 0, 0);
        let c = g.addr_of(0, 1, 0);
        let d = g.addr_of(0, 0, 1);
        assert_eq!(b.raw(), a.raw() + 8);
        assert_eq!(c.raw(), a.raw() + 4 * 8);
        assert_eq!(d.raw(), a.raw() + 16 * 8);
    }

    #[test]
    fn read_write_round_trip() {
        let (_sp, mut g) = setup();
        g.write(2, 3, 1, 77, &mut NullSink, SiteId(0));
        assert_eq!(g.read(2, 3, 1, &mut NullSink, SiteId(0)), 77);
        assert_eq!(g.cells[g.index(2, 3, 1)], 77);
    }

    #[test]
    fn copy_emits_block_granular_traffic() {
        let mut sp = AddressSpace::new(1);
        let mut a = SimGrid::new(&mut sp, ThreadId(0), 8, 8, 4); // 256 cells = 2048 B = 32 blocks
        let mut b = SimGrid::new(&mut sp, ThreadId(0), 8, 8, 4);
        a.poke(1, 2, 3, 42);
        let mut sink = VecSink::new();
        b.copy_from(&a, &mut sink, SiteId(1), SiteId(2));
        assert_eq!(sink.loads(), 32);
        assert_eq!(sink.stores(), 32);
        assert_eq!(b.cells[b.index(1, 2, 3)], 42);
    }

    #[test]
    fn grid_is_page_aligned() {
        let (_sp, g) = setup();
        assert_eq!(g.base.raw() % 4096, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let (_sp, g) = setup();
        g.addr_of(4, 0, 0);
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn mismatched_copy_panics() {
        let mut sp = AddressSpace::new(1);
        let a = SimGrid::new(&mut sp, ThreadId(0), 2, 2, 1);
        let mut b = SimGrid::new(&mut sp, ThreadId(0), 2, 2, 2);
        b.copy_from(&a, &mut NullSink, SiteId(0), SiteId(0));
    }
}
