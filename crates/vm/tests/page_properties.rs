//! Randomized tests of the dynamic classification subsystem: page safety is
//! monotone, shootdowns are singular, and the census never lies (std-only:
//! cases come from the deterministic in-tree generator).

use hintm_types::rng::SmallRng;
use hintm_types::{AccessKind, CoreId, MachineConfig, PageId, ThreadId};
use hintm_vm::{PageState, VmSystem};
use std::collections::{HashMap, HashSet};

/// One random access: (thread/core 0..8, page slot 0..24, is_store).
fn accesses(rng: &mut SmallRng, len_range: std::ops::Range<usize>) -> Vec<(u8, u8, bool)> {
    let n = rng.gen_range(len_range);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..8u8),
                rng.gen_range(0..24u8),
                rng.gen_bool(0.5),
            )
        })
        .collect()
}

/// Once a page is ⟨shared,rw⟩ it never becomes safe again, and each
/// page pays at most one shootdown in its lifetime (§VI-B).
#[test]
fn unsafety_is_sticky_and_shootdowns_singular() {
    let mut rng = SmallRng::seed_from_u64(0x5A5A);
    for round in 0..96 {
        let preserve = round % 2 == 0;
        let mut vm = VmSystem::new(&MachineConfig::default(), preserve);
        let mut went_unsafe: HashSet<PageId> = HashSet::new();
        let mut shootdowns: HashMap<PageId, u32> = HashMap::new();
        for (t, slot, is_store) in accesses(&mut rng, 1..300) {
            let page = PageId::from_index(slot as u64 + 100);
            let kind = if is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let r = vm.access(CoreId(t as u32), ThreadId(t as u32), page, kind);
            if let Some(sd) = &r.shootdown {
                assert_eq!(sd.page, page);
                *shootdowns.entry(page).or_default() += 1;
            }
            let state = vm.page_state(page).expect("touched");
            if state == PageState::SharedRw {
                went_unsafe.insert(page);
            }
            if went_unsafe.contains(&page) {
                assert_eq!(vm.page_state(page), Some(PageState::SharedRw));
                assert!(
                    !r.safe_load || kind == AccessKind::Store,
                    "load of an unsafe page classified safe"
                );
            }
        }
        for (page, count) in shootdowns {
            assert_eq!(count, 1, "page {page} shot down more than once");
        }
    }
}

/// A store access is never classified as a safe load, whatever the
/// history (§III-B: dynamic classification never marks writes safe).
#[test]
fn stores_are_never_safe() {
    let mut rng = SmallRng::seed_from_u64(0x5702E);
    for _ in 0..96 {
        let mut vm = VmSystem::new(&MachineConfig::default(), false);
        for (t, slot, is_store) in accesses(&mut rng, 1..200) {
            let kind = if is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let r = vm.access(
                CoreId(t as u32),
                ThreadId(t as u32),
                PageId::from_index(slot as u64),
                kind,
            );
            if is_store {
                assert!(!r.safe_load);
            }
        }
    }
}

/// Single-thread executions never pay a shootdown and all loads stay
/// safe (everything remains ⟨private,*⟩).
#[test]
fn single_thread_never_shoots_down() {
    let mut rng = SmallRng::seed_from_u64(0x0111);
    for _ in 0..96 {
        let mut vm = VmSystem::new(&MachineConfig::default(), false);
        let n = rng.gen_range(1..200usize);
        for _ in 0..n {
            let slot = rng.gen_range(0..24u8);
            let is_store = rng.gen_bool(0.5);
            let kind = if is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let r = vm.access(
                CoreId(0),
                ThreadId(0),
                PageId::from_index(slot as u64),
                kind,
            );
            assert!(r.shootdown.is_none());
            if kind == AccessKind::Load {
                assert!(r.safe_load);
            }
        }
        let (safe, total) = vm.safe_page_census();
        assert_eq!(safe, total);
    }
}

/// The census counts exactly the touched pages, and safe ≤ total.
#[test]
fn census_is_exact() {
    let mut rng = SmallRng::seed_from_u64(0xCE4505);
    for _ in 0..96 {
        let mut vm = VmSystem::new(&MachineConfig::default(), false);
        let mut touched: HashSet<u64> = HashSet::new();
        for (t, slot, is_store) in accesses(&mut rng, 1..250) {
            let kind = if is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            vm.access(
                CoreId(t as u32),
                ThreadId(t as u32),
                PageId::from_index(slot as u64),
                kind,
            );
            touched.insert(slot as u64);
        }
        let (safe, total) = vm.safe_page_census();
        assert_eq!(total, touched.len() as u64);
        assert!(safe <= total);
    }
}
