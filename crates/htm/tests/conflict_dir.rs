//! The conflict directory against the per-peer probe loop it replaced:
//! random transactions of every HTM model, with small buffers and
//! signatures so that P8S and LRWS signatures alias, PStretch stretches,
//! LogTM overflows into its log and ROT drops its loads. After every
//! access, commit and abort, each thread's access to each block must
//! name the same victims, with the same abort kind, in the same order.

use hintm_htm::{ConflictDir, HtmConfig, HtmKind, HtmThread};
use hintm_types::rng::SmallRng;
use hintm_types::{AbortKind, AccessKind, BlockAddr};

const THREADS: usize = 4;
/// Blocks the transactions touch.
const TOUCHED: u64 = 32;
/// Blocks the victim queries cover; the untouched ones can only hit
/// through signature aliasing.
const QUERIED: u64 = 48;

/// The engine's conflict check before the directory: one
/// `conflict_probe`/`writes_block` per active peer, and a
/// `precise_reads_block` probe to tell a signature's false hit apart.
fn probe_each_peer(
    threads: &[HtmThread],
    active: u64,
    i: usize,
    block: BlockAddr,
    kind: AccessKind,
) -> Vec<(usize, AbortKind)> {
    let mut out = Vec::new();
    let mut others = active & !(1 << i);
    while others != 0 {
        let j = others.trailing_zeros() as usize;
        others &= others - 1;
        let t = &threads[j];
        let (reads, writes) = match kind {
            AccessKind::Store => t.conflict_probe(block),
            AccessKind::Load => {
                let w = t.writes_block(block);
                (w, w)
            }
        };
        if writes || (kind == AccessKind::Store && reads) {
            let abort = if !writes && !t.precise_reads_block(block) {
                AbortKind::FalseConflict
            } else {
                AbortKind::Conflict
            };
            out.push((j, abort));
        }
    }
    out
}

struct World {
    threads: Vec<HtmThread>,
    dir: ConflictDir,
    active: u64,
    false_conflicts: u64,
}

impl World {
    fn end(&mut self, j: usize, abort: Option<AbortKind>) {
        self.dir.release(j, &self.threads[j]);
        match abort {
            Some(kind) => self.threads[j].abort(kind),
            None => self.threads[j].commit(),
        }
        self.active &= !(1 << j);
    }

    fn victims(&self, i: usize, block: BlockAddr, kind: AccessKind) -> Vec<(usize, AbortKind)> {
        let mut out = Vec::new();
        self.dir
            .victims(i, block, kind, self.active, |j| &self.threads[j], &mut out);
        out
    }

    fn assert_same_victims(&mut self, context: &str) {
        for i in 0..THREADS {
            for b in 0..QUERIED {
                let block = BlockAddr::from_index(b);
                for kind in [AccessKind::Load, AccessKind::Store] {
                    let got = self.victims(i, block, kind);
                    let want = probe_each_peer(&self.threads, self.active, i, block, kind);
                    assert_eq!(got, want, "{context}: thread {i} {kind:?} block {b}");
                    self.false_conflicts += got
                        .iter()
                        .filter(|(_, k)| *k == AbortKind::FalseConflict)
                        .count() as u64;
                }
            }
        }
    }
}

#[test]
fn directory_names_the_same_victims_as_probing_each_peer() {
    use HtmKind::*;
    for kind in [P8, P8S, L1Tm, InfCap, Rot, LogTm, Lrws, PStretch] {
        let mut cfg = HtmConfig::new(kind);
        cfg.buffer_entries = 4;
        cfg.sig_bits = 64;
        cfg.lrws_read_limit = 2;
        cfg.lrws_write_limit = 2;
        cfg.max_stretches = 2;
        let mut w = World {
            threads: (0..THREADS).map(|_| HtmThread::new(&cfg)).collect(),
            dir: ConflictDir::new(kind),
            active: 0,
            false_conflicts: 0,
        };
        let (mut stretches, mut overflowed) = (0, 0);
        for seed in 0..3u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            for step in 0..600 {
                let i = rng.gen_range(0..THREADS);
                if w.active & (1 << i) == 0 {
                    w.threads[i].begin();
                    w.active |= 1 << i;
                    continue;
                }
                let context = format!("{kind} seed {seed} step {step}");
                match rng.gen_range(0..20u32) {
                    0 => w.end(i, None),
                    1 => w.end(i, Some(AbortKind::Conflict)),
                    _ => {
                        let block = BlockAddr::from_index(rng.gen_range(0..TOUCHED));
                        let access = if rng.gen_bool(0.5) {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        };
                        // Requester wins, as in the engine: only now and
                        // then, so that peers' sets grow large enough to
                        // overflow.
                        if rng.gen_bool(0.2) {
                            for (j, k) in w.victims(i, block, access) {
                                w.end(j, Some(k));
                            }
                        }
                        let safe = rng.gen_bool(0.1);
                        match w.threads[i].on_access(block, access, safe) {
                            Ok(()) if !safe => w.dir.record(i, block, access),
                            Ok(()) => {}
                            Err(_) => w.end(i, Some(AbortKind::Capacity)),
                        }
                        stretches += w.threads[i].stretch_events();
                        overflowed += w.threads[i].overflowed_blocks();
                    }
                }
                w.assert_same_victims(&context);
            }
        }
        match kind {
            P8S | Lrws => assert!(w.false_conflicts > 0, "{kind}: no signature aliasing"),
            PStretch => assert!(stretches > 0, "{kind}: no stretch"),
            LogTm => assert!(overflowed > 0, "{kind}: no log overflow"),
            _ => {}
        }
    }
}
