//! Shared workload infrastructure: the op recorder and scale presets.

use hintm_mem::AccessSink;
use hintm_sim::{TxBody, TxOp};
use hintm_types::rng::SmallRng;
use hintm_types::{Addr, MemAccess, SiteId};

/// Input scale preset.
///
/// `Sim` matches the paper's simulator-sized inputs for the P8
/// experiments; `Large` is the bigger input used to create capacity
/// pressure on the roomier P8S and L1TM configurations (§VI-D).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Scale {
    /// Simulator-sized inputs (P8 experiments).
    #[default]
    Sim,
    /// Larger inputs (P8S / L1TM experiments).
    Large,
}

impl Scale {
    /// Multiplies a base count by the scale factor (×1 or ×3).
    pub(crate) fn scaled(self, base: usize) -> usize {
        match self {
            Scale::Sim => base,
            Scale::Large => base * 3,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scale::Sim => "sim",
            Scale::Large => "large",
        })
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses `sim` or `large`, case-insensitively.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "sim" => Ok(Scale::Sim),
            "large" => Ok(Scale::Large),
            _ => Err(format!("unknown scale `{s}`")),
        }
    }
}

/// An [`AccessSink`] that builds a transaction body, merging consecutive
/// compute into one op.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    ops: Vec<TxOp>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Finishes recording and returns the body.
    pub(crate) fn into_body(self) -> TxBody {
        TxBody::new(self.ops)
    }

    /// Finishes recording and returns the raw ops (non-TX sections).
    pub(crate) fn into_ops(self) -> Vec<TxOp> {
        self.ops
    }

    /// Returns `true` if nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl AccessSink for Recorder {
    fn load(&mut self, addr: Addr, site: SiteId) {
        self.ops.push(TxOp::Access(MemAccess::load(addr, site)));
    }

    fn store(&mut self, addr: Addr, site: SiteId) {
        self.ops.push(TxOp::Access(MemAccess::store(addr, site)));
    }

    fn compute(&mut self, cycles: u64) {
        if let Some(TxOp::Compute(c)) = self.ops.last_mut() {
            *c += cycles;
        } else {
            self.ops.push(TxOp::Compute(cycles));
        }
    }
}

/// A deterministic per-thread RNG stream: independent of scheduling order
/// and of other threads' draws.
pub(crate) fn thread_rng(seed: u64, tid: usize, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (tid as u64).wrapping_mul(0xd134_2543_de82_ef95)
            ^ salt.wrapping_mul(0xaf25_1af3_b0f0_25b5),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_parse_back() {
        for scale in [Scale::Sim, Scale::Large] {
            assert_eq!(scale.to_string().parse::<Scale>(), Ok(scale));
        }
        assert_eq!("LARGE".parse::<Scale>(), Ok(Scale::Large));
        assert!("huge".parse::<Scale>().is_err());
    }

    #[test]
    fn recorder_merges_compute() {
        let mut r = Recorder::new();
        r.compute(10);
        r.compute(5);
        r.load(Addr::new(0x40), SiteId(1));
        r.compute(3);
        let body = r.into_body();
        assert_eq!(body.ops.len(), 3);
        assert_eq!(body.ops[0], TxOp::Compute(15));
    }

    #[test]
    fn recorder_orders_accesses() {
        let mut r = Recorder::new();
        r.store(Addr::new(0x40), SiteId(1));
        r.load(Addr::new(0x80), SiteId(2));
        let ops = r.into_ops();
        assert!(matches!(ops[0], TxOp::Access(a) if a.kind.is_store()));
        assert!(matches!(ops[1], TxOp::Access(a) if a.kind.is_load()));
    }

    #[test]
    fn thread_rng_streams_are_independent_and_stable() {
        let mut a1 = thread_rng(1, 0, 0);
        let mut a2 = thread_rng(1, 0, 0);
        let mut b = thread_rng(1, 1, 0);
        let mut c = thread_rng(1, 0, 1);
        let x1: u64 = a1.next_u64();
        let x2: u64 = a2.next_u64();
        assert_eq!(x1, x2);
        assert_ne!(x1, b.next_u64());
        assert_ne!(x1, c.next_u64());
    }

    #[test]
    fn scale_multiplier() {
        assert_eq!(Scale::Sim.scaled(10), 10);
        assert_eq!(Scale::Large.scaled(10), 30);
    }
}
