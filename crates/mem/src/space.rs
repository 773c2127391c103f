//! The simulated virtual address space: segments and allocators.
//!
//! Layout (all constants are arbitrary but disjoint; nothing else interprets
//! raw addresses):
//!
//! ```text
//! 0x0000_1000_0000 .. : global segment (statics, read-only tables)
//! 0x0010_0000_0000 .. : heap, one 4 GiB arena per thread (thread-affine)
//! 0x7f00_0000_0000 .. : stacks, one 8 MiB region per thread
//! ```
//!
//! Heap arenas are *thread-affine*: allocations from different threads never
//! share a page. This mirrors per-thread malloc arenas and is what makes
//! most heap pages start out thread-private at runtime — the property
//! HinTM's dynamic page classifier exploits (§III-B). Freed heap chunks are
//! recycled through per-arena size-class free lists so long-running
//! workloads reuse addresses the way a real allocator does.

use hintm_types::{Addr, AllocConfig, ThreadId, PAGE_SIZE};
use std::fmt;

const GLOBAL_BASE: u64 = 0x0000_1000_0000;
const HEAP_BASE: u64 = 0x0010_0000_0000;
/// Address space of one thread's heap arena (4 GiB): the bound on every
/// arena's bump pointer, color padding included.
pub const HEAP_ARENA_SIZE: u64 = 0x1_0000_0000;
const STACK_BASE: u64 = 0x7f00_0000_0000;
const STACK_SIZE: u64 = 8 * 1024 * 1024;

/// Which segment an address belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SegmentKind {
    /// The global (static) segment.
    Global,
    /// The heap arena owned by the given thread.
    Heap(ThreadId),
    /// The stack of the given thread.
    Stack(ThreadId),
    /// Not part of any allocated segment.
    Unmapped,
}

impl fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentKind::Global => write!(f, "global"),
            SegmentKind::Heap(t) => write!(f, "heap[{t}]"),
            SegmentKind::Stack(t) => write!(f, "stack[{t}]"),
            SegmentKind::Unmapped => write!(f, "unmapped"),
        }
    }
}

#[derive(Debug)]
struct Arena {
    /// Bump offset within the arena.
    bump: u64,
    /// Size-class free lists as sorted runs: `(rounded size, freed base
    /// offsets)` ordered by size. Workloads use a handful of size classes,
    /// so a binary search over a flat sorted vector beats hashing; each
    /// run's offsets stay LIFO (pop from the back) like the `HashMap`
    /// free lists this replaces.
    free: Vec<(u64, Vec<u64>)>,
    /// Index of the most recently used run (`usize::MAX` = cold); loops of
    /// same-sized alloc/free hit this without the binary search.
    last: usize,
}

impl Default for Arena {
    fn default() -> Self {
        Arena {
            bump: 0,
            free: Vec::new(),
            last: usize::MAX,
        }
    }
}

impl Arena {
    /// The free-list run for `cls`, creating it if `insert` and absent.
    fn run_of(&mut self, cls: u64, insert: bool) -> Option<&mut Vec<u64>> {
        if self.last != usize::MAX && self.free[self.last].0 == cls {
            let i = self.last;
            return Some(&mut self.free[i].1);
        }
        match self.free.binary_search_by_key(&cls, |(c, _)| *c) {
            Ok(i) => {
                self.last = i;
                Some(&mut self.free[i].1)
            }
            Err(i) if insert => {
                self.free.insert(i, (cls, Vec::new()));
                self.last = i;
                Some(&mut self.free[i].1)
            }
            Err(_) => None,
        }
    }
}

/// The simulated virtual address space.
///
/// # Examples
///
/// ```
/// use hintm_mem::AddressSpace;
/// use hintm_types::ThreadId;
///
/// let mut space = AddressSpace::new(4);
/// let g = space.alloc_global(64);
/// let h = space.halloc(ThreadId(2), 100);
/// assert_ne!(g.page(), h.page());
/// space.hfree(ThreadId(2), h, 100);
/// // The freed chunk is recycled for an equal-size request.
/// assert_eq!(space.halloc(ThreadId(2), 100), h);
/// ```
#[derive(Debug)]
pub struct AddressSpace {
    num_threads: usize,
    global_bump: u64,
    arenas: Vec<Arena>,
    stack_tops: Vec<u64>,
    alloc: AllocConfig,
}

fn round_up(v: u64, align: u64) -> u64 {
    (v + align - 1) & !(align - 1)
}

/// Size-class rounding: 16-byte granule up to 256 B, then 64-byte granule.
fn size_class(size: u64) -> u64 {
    if size <= 256 {
        round_up(size.max(16), 16)
    } else {
        round_up(size, 64)
    }
}

impl AddressSpace {
    /// Creates an address space for `num_threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is 0 or exceeds 1024.
    pub fn new(num_threads: usize) -> Self {
        Self::with_config(num_threads, AllocConfig::default())
    }

    /// Creates an address space whose heap arenas follow the given
    /// placement policy (see [`AllocConfig`]). `with_config(n, default)`
    /// is exactly [`AddressSpace::new`].
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is 0 or exceeds 1024.
    pub fn with_config(num_threads: usize, alloc: AllocConfig) -> Self {
        assert!(
            num_threads > 0 && num_threads <= 1024,
            "unsupported thread count"
        );
        AddressSpace {
            num_threads,
            global_bump: 0,
            arenas: (0..num_threads).map(|_| Arena::default()).collect(),
            stack_tops: vec![0; num_threads],
            alloc,
        }
    }

    /// Allocates `size` bytes from the global segment (16-byte aligned).
    ///
    /// Used for statics and data that is logically part of the program image
    /// (e.g. read-only lookup tables).
    pub fn alloc_global(&mut self, size: u64) -> Addr {
        let base = GLOBAL_BASE + self.global_bump;
        self.global_bump += round_up(size.max(1), 16);
        Addr::new(base)
    }

    /// Allocates `size` bytes from the global segment, aligned to a page.
    pub fn alloc_global_page_aligned(&mut self, size: u64) -> Addr {
        self.global_bump = round_up(self.global_bump, PAGE_SIZE as u64);
        self.alloc_global(round_up(size.max(1), PAGE_SIZE as u64))
    }

    /// Heap allocation from `tid`'s arena (like `malloc` on a per-thread
    /// arena allocator). 16-byte aligned; recycles freed chunks of the same
    /// size class.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range or the 4 GiB arena is exhausted.
    pub fn halloc(&mut self, tid: ThreadId, size: u64) -> Addr {
        let cls = size_class(size);
        let arena = &mut self.arenas[tid.index()];
        if let Some(off) = arena.run_of(cls, false).and_then(|list| list.pop()) {
            return Addr::new(HEAP_BASE + tid.index() as u64 * HEAP_ARENA_SIZE + off);
        }
        // Placement policy applies to fresh bump space only: recycled
        // chunks keep their addresses, so committed program state is
        // placement-independent.
        let off = round_up(arena.bump, 16);
        arena.bump = (off + cls)
            .checked_add(self.alloc.color_stride)
            .filter(|&b| b <= HEAP_ARENA_SIZE)
            .unwrap_or_else(|| panic!("heap arena exhausted for {tid}"));
        Addr::new(HEAP_BASE + tid.index() as u64 * HEAP_ARENA_SIZE + off)
    }

    /// Heap allocation padded and aligned so it starts on a fresh page.
    ///
    /// Used for large structures (e.g. labyrinth's per-thread grids) whose
    /// real counterparts are served by `mmap` and never share pages with
    /// other objects.
    pub(crate) fn halloc_pages(&mut self, tid: ThreadId, size: u64) -> Addr {
        let arena = &mut self.arenas[tid.index()];
        arena.bump = round_up(arena.bump, PAGE_SIZE as u64);
        let off = arena.bump;
        arena.bump += round_up(size.max(1), PAGE_SIZE as u64);
        assert!(
            arena.bump <= HEAP_ARENA_SIZE,
            "heap arena exhausted for {tid}"
        );
        Addr::new(HEAP_BASE + tid.index() as u64 * HEAP_ARENA_SIZE + off)
    }

    /// Frees a heap chunk previously returned by [`AddressSpace::halloc`]
    /// with the same `size`. The chunk is returned to the arena that owns
    /// the address, so cross-thread frees (thread A freeing a node thread B
    /// allocated) work like they do in a real arena allocator; `_tid` is
    /// the freeing thread and only documents intent.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a heap address.
    pub fn hfree(&mut self, _tid: ThreadId, addr: Addr, size: u64) {
        let SegmentKind::Heap(owner) = self.segment_of_heap(addr) else {
            panic!("hfree of non-heap address {addr}");
        };
        let arena_base = HEAP_BASE + owner.index() as u64 * HEAP_ARENA_SIZE;
        let cls = size_class(size);
        self.arenas[owner.index()]
            .run_of(cls, true)
            .expect("run created on demand")
            .push(addr.raw() - arena_base);
    }

    /// Like [`AddressSpace::segment_of`] but only recognizing the heap.
    fn segment_of_heap(&self, addr: Addr) -> SegmentKind {
        let raw = addr.raw();
        if raw >= HEAP_BASE && raw < HEAP_BASE + self.num_threads as u64 * HEAP_ARENA_SIZE {
            SegmentKind::Heap(ThreadId(((raw - HEAP_BASE) / HEAP_ARENA_SIZE) as u32))
        } else {
            SegmentKind::Unmapped
        }
    }

    /// Pushes a stack frame of `size` bytes for `tid` and returns its base.
    ///
    /// # Panics
    ///
    /// Panics on stack overflow (8 MiB per thread).
    pub fn stack_push(&mut self, tid: ThreadId, size: u64) -> Addr {
        let top = &mut self.stack_tops[tid.index()];
        let base = *top;
        *top += round_up(size.max(1), 16);
        assert!(*top <= STACK_SIZE, "simulated stack overflow for {tid}");
        Addr::new(STACK_BASE + tid.index() as u64 * STACK_SIZE + base)
    }

    /// Pops the most recent `size`-byte frame for `tid`.
    ///
    /// # Panics
    ///
    /// Panics if more bytes are popped than were pushed.
    pub fn stack_pop(&mut self, tid: ThreadId, size: u64) {
        let top = &mut self.stack_tops[tid.index()];
        let sz = round_up(size.max(1), 16);
        assert!(*top >= sz, "stack underflow for {tid}");
        *top -= sz;
    }

    /// Classifies a raw address into the segment that owns it.
    #[cfg(test)]
    pub(crate) fn segment_of(&self, addr: Addr) -> SegmentKind {
        let raw = addr.raw();
        if raw >= GLOBAL_BASE && raw < GLOBAL_BASE + self.global_bump {
            return SegmentKind::Global;
        }
        if raw >= HEAP_BASE && raw < HEAP_BASE + self.num_threads as u64 * HEAP_ARENA_SIZE {
            let t = (raw - HEAP_BASE) / HEAP_ARENA_SIZE;
            return SegmentKind::Heap(ThreadId(t as u32));
        }
        if raw >= STACK_BASE && raw < STACK_BASE + self.num_threads as u64 * STACK_SIZE {
            let t = (raw - STACK_BASE) / STACK_SIZE;
            return SegmentKind::Stack(ThreadId(t as u32));
        }
        SegmentKind::Unmapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_allocations_are_disjoint() {
        let mut s = AddressSpace::new(2);
        let a = s.alloc_global(100);
        let b = s.alloc_global(100);
        assert!(b.raw() >= a.raw() + 100);
    }

    #[test]
    fn heap_arenas_never_share_pages() {
        let mut s = AddressSpace::new(8);
        let a = s.halloc(ThreadId(0), 8);
        let b = s.halloc(ThreadId(1), 8);
        assert_ne!(a.page(), b.page());
        assert_eq!(s.segment_of(a), SegmentKind::Heap(ThreadId(0)));
        assert_eq!(s.segment_of(b), SegmentKind::Heap(ThreadId(1)));
    }

    #[test]
    fn heap_free_recycles_same_size_class() {
        let mut s = AddressSpace::new(1);
        let a = s.halloc(ThreadId(0), 48);
        s.hfree(ThreadId(0), a, 48);
        let b = s.halloc(ThreadId(0), 48);
        assert_eq!(a, b);
    }

    #[test]
    fn different_size_classes_do_not_alias() {
        let mut s = AddressSpace::new(1);
        let a = s.halloc(ThreadId(0), 48);
        s.hfree(ThreadId(0), a, 48);
        let b = s.halloc(ThreadId(0), 200);
        assert_ne!(a, b);
    }

    #[test]
    fn page_aligned_heap_allocs() {
        let mut s = AddressSpace::new(2);
        let _ = s.halloc(ThreadId(0), 100);
        let a = s.halloc_pages(ThreadId(0), 5000);
        assert_eq!(a.raw() % PAGE_SIZE as u64, 0);
        let b = s.halloc(ThreadId(0), 16);
        assert!(
            b.raw() >= a.raw() + 8192,
            "page alloc must consume whole pages"
        );
    }

    #[test]
    fn stack_push_pop() {
        let mut s = AddressSpace::new(2);
        let f1 = s.stack_push(ThreadId(1), 64);
        let f2 = s.stack_push(ThreadId(1), 64);
        assert_eq!(f2.raw(), f1.raw() + 64);
        s.stack_pop(ThreadId(1), 64);
        let f3 = s.stack_push(ThreadId(1), 64);
        assert_eq!(f3, f2);
        assert_eq!(s.segment_of(f1), SegmentKind::Stack(ThreadId(1)));
    }

    #[test]
    fn stacks_of_threads_are_disjoint() {
        let mut s = AddressSpace::new(2);
        let a = s.stack_push(ThreadId(0), 64);
        let b = s.stack_push(ThreadId(1), 64);
        assert_ne!(a.page(), b.page());
    }

    #[test]
    fn segment_of_unmapped() {
        let s = AddressSpace::new(1);
        assert_eq!(s.segment_of(Addr::new(0x10)), SegmentKind::Unmapped);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn stack_underflow_panics() {
        let mut s = AddressSpace::new(1);
        s.stack_pop(ThreadId(0), 64);
    }

    #[test]
    fn cross_thread_free_returns_to_owner_arena() {
        let mut s = AddressSpace::new(2);
        let a = s.halloc(ThreadId(0), 32);
        s.hfree(ThreadId(1), a, 32); // freed by the other thread
        let b = s.halloc(ThreadId(0), 32);
        assert_eq!(a, b, "owner arena recycles the chunk");
    }

    #[test]
    #[should_panic(expected = "non-heap")]
    fn hfree_of_global_panics() {
        let mut s = AddressSpace::new(1);
        let g = s.alloc_global(32);
        s.hfree(ThreadId(0), g, 32);
    }

    #[test]
    fn color_stride_shears_fresh_allocations() {
        let mut plain = AddressSpace::new(1);
        let mut colored = AddressSpace::with_config(1, AllocConfig { color_stride: 48 });
        let (a0, a1) = (plain.halloc(ThreadId(0), 32), plain.halloc(ThreadId(0), 32));
        let (b0, b1) = (
            colored.halloc(ThreadId(0), 32),
            colored.halloc(ThreadId(0), 32),
        );
        assert_eq!(a1.raw() - a0.raw(), 32);
        assert_eq!(b1.raw() - b0.raw(), 32 + 48, "stride pads each fresh alloc");
        // Recycled chunks keep their addresses under any policy.
        colored.hfree(ThreadId(0), b0, 32);
        assert_eq!(colored.halloc(ThreadId(0), 32), b0);
    }

    #[test]
    #[should_panic(expected = "heap arena exhausted")]
    fn overflowing_color_stride_exhausts_the_arena() {
        // A stride that wraps the bump pointer must not silently fall back
        // to the packed layout.
        let mut s = AddressSpace::with_config(
            1,
            AllocConfig {
                color_stride: u64::MAX,
            },
        );
        s.halloc(ThreadId(0), 32);
    }

    #[test]
    fn default_config_matches_new() {
        let mut a = AddressSpace::new(2);
        let mut b = AddressSpace::with_config(2, AllocConfig::default());
        for i in 1..20u64 {
            assert_eq!(a.halloc(ThreadId(0), i * 24), b.halloc(ThreadId(0), i * 24));
        }
    }

    #[test]
    fn size_class_rounding() {
        assert_eq!(size_class(1), 16);
        assert_eq!(size_class(16), 16);
        assert_eq!(size_class(17), 32);
        assert_eq!(size_class(256), 256);
        assert_eq!(size_class(257), 320);
    }
}
