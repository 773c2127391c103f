//! Randomized tests: the simulated data structures must behave exactly like
//! their std-library references, and the allocator must never hand out
//! overlapping live chunks (std-only: cases come from the deterministic
//! in-tree generator).

use hintm_mem::ds::{HashMapSites, SimHashMap, SimTreap, TreapSites};
use hintm_mem::{AddressSpace, NullSink};
use hintm_types::rng::SmallRng;
use hintm_types::{SiteId, ThreadId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

#[derive(Clone, Debug)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Update(u64, u64),
}

fn map_ops(rng: &mut SmallRng, len_range: std::ops::Range<usize>) -> Vec<MapOp> {
    let n = rng.gen_range(len_range);
    (0..n)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => MapOp::Insert(rng.gen_range(0..64u64), rng.next_u64()),
            1 => MapOp::Remove(rng.gen_range(0..64u64)),
            2 => MapOp::Get(rng.gen_range(0..64u64)),
            _ => MapOp::Update(rng.gen_range(0..64u64), rng.next_u64()),
        })
        .collect()
}

/// SimTreap behaves exactly like BTreeMap under random op sequences.
#[test]
fn treap_matches_btreemap() {
    let mut rng = SmallRng::seed_from_u64(0x72EA9);
    for _ in 0..128 {
        let mut space = AddressSpace::new(2);
        let mut treap = SimTreap::new(48);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let sites = TreapSites::uniform(SiteId(0));
        for op in map_ops(&mut rng, 1..200) {
            match op {
                MapOp::Insert(k, v) => {
                    let inserted =
                        treap.insert(k, v, ThreadId(0), &mut space, &mut NullSink, sites);
                    let model_inserted = !model.contains_key(&k);
                    if model_inserted {
                        model.insert(k, v);
                    }
                    assert_eq!(inserted, model_inserted);
                }
                MapOp::Remove(k) => {
                    let got = treap.remove(k, ThreadId(0), &mut space, &mut NullSink, sites);
                    assert_eq!(got, model.remove(&k));
                }
                MapOp::Get(k) => {
                    assert_eq!(treap.get(k, &mut NullSink, sites), model.get(&k).copied());
                }
                MapOp::Update(k, v) => {
                    let got = treap.update(k, v, &mut NullSink, sites);
                    let model_got = model.get(&k).copied();
                    if model_got.is_some() {
                        model.insert(k, v);
                    }
                    assert_eq!(got, model_got);
                }
            }
            assert_eq!(treap.len(), model.len());
        }
        // In-order iteration agrees.
        let keys: Vec<u64> = model.keys().copied().collect();
        assert_eq!(treap.keys(), keys);
    }
}

/// SimTreap ceiling matches the BTreeMap range query.
#[test]
fn treap_ceiling_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0xCE111);
    for _ in 0..128 {
        let keys: BTreeSet<u64> = {
            let n = rng.gen_range(1..60usize);
            (0..n).map(|_| rng.gen_range(0..500u64)).collect()
        };
        let probe = rng.gen_range(0..520u64);
        let mut space = AddressSpace::new(1);
        let mut treap = SimTreap::new(48);
        let sites = TreapSites::uniform(SiteId(0));
        for &k in &keys {
            treap.insert(k, k + 1, ThreadId(0), &mut space, &mut NullSink, sites);
        }
        let expected = keys.range(probe..).next().map(|&k| (k, k + 1));
        assert_eq!(treap.ceiling(probe, &mut NullSink, sites), expected);
    }
}

/// SimHashMap behaves exactly like HashMap under random op sequences.
#[test]
fn hashmap_matches_std() {
    let mut rng = SmallRng::seed_from_u64(0x4A54);
    for _ in 0..128 {
        let buckets = rng.gen_range(1..32usize);
        let mut space = AddressSpace::new(2);
        let mut map = SimHashMap::new(&mut space, buckets, 32);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let sites = HashMapSites::uniform(SiteId(0));
        for op in map_ops(&mut rng, 1..200) {
            match op {
                MapOp::Insert(k, v) => {
                    let ok = map.insert(k, v, ThreadId(0), &mut space, &mut NullSink, sites);
                    let model_ok = !model.contains_key(&k);
                    if model_ok {
                        model.insert(k, v);
                    }
                    assert_eq!(ok, model_ok);
                }
                MapOp::Remove(k) => {
                    let got = map.remove(k, ThreadId(0), &mut space, &mut NullSink, sites);
                    assert_eq!(got, model.remove(&k));
                }
                MapOp::Get(k) => {
                    assert_eq!(map.get(k, &mut NullSink, sites), model.get(&k).copied());
                    assert_eq!(
                        map.contains(k, &mut NullSink, sites),
                        model.contains_key(&k)
                    );
                }
                MapOp::Update(k, v) => {
                    let got = map.update(k, v, &mut NullSink, sites);
                    let model_got = model.get(&k).copied();
                    if model_got.is_some() {
                        model.insert(k, v);
                    }
                    assert_eq!(got, model_got);
                }
            }
            assert_eq!(map.len(), model.len());
        }
    }
}

/// Live heap chunks never overlap, across threads and frees.
#[test]
fn allocator_chunks_are_disjoint() {
    let mut rng = SmallRng::seed_from_u64(0xA110C);
    for _ in 0..128 {
        let mut space = AddressSpace::new(4);
        let mut live: Vec<(u64, u64)> = Vec::new(); // (base, size)
        let n = rng.gen_range(1..150usize);
        for _ in 0..n {
            let tid = rng.gen_range(0..4u8);
            let size = rng.gen_range(1..300u64);
            let free_one = rng.gen_bool(0.5);
            if free_one && !live.is_empty() {
                let (base, size) = live.swap_remove(0);
                space.hfree(ThreadId(tid as u32), hintm_types::Addr::new(base), size);
            } else {
                let a = space.halloc(ThreadId(tid as u32), size);
                // No overlap with any live chunk.
                for &(b, s) in &live {
                    let disjoint = a.raw() + size <= b || b + s <= a.raw();
                    assert!(
                        disjoint,
                        "chunk {:#x}+{} overlaps {:#x}+{}",
                        a.raw(),
                        size,
                        b,
                        s
                    );
                }
                live.push((a.raw(), size));
            }
        }
    }
}

/// Stack frames are LIFO-disjoint per thread.
#[test]
fn stack_frames_are_disjoint() {
    let mut rng = SmallRng::seed_from_u64(0x57AC);
    for _ in 0..128 {
        let mut space = AddressSpace::new(1);
        let mut frames: Vec<(u64, u64)> = Vec::new();
        let n = rng.gen_range(1..40usize);
        for _ in 0..n {
            let size = rng.gen_range(1..500u64);
            let a = space.stack_push(ThreadId(0), size);
            for &(b, s) in &frames {
                assert!(a.raw() >= b + s || a.raw() + size <= b);
            }
            frames.push((a.raw(), size));
        }
        for (_, size) in frames.into_iter().rev() {
            space.stack_pop(ThreadId(0), size);
        }
    }
}
