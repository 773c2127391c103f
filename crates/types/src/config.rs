//! Simulated machine configuration (the paper's Table II) and shared
//! enumerations for abort kinds and conflict-resolution policy.

use crate::Cycles;
use std::fmt;

/// Why a transaction aborted.
///
/// The paper distinguishes conflict aborts, capacity aborts, false-conflict
/// aborts (signature aliasing in the P8S configuration), and HinTM's new
/// page-mode aborts (§III-B). `FallbackLock` covers TXs killed because a
/// peer acquired the software fallback lock.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AbortKind {
    /// A genuine read-write or write-write conflict with another thread.
    Conflict,
    /// The transaction exceeded the HTM's tracking capacity.
    Capacity,
    /// A signature false positive (only possible with hardware signatures).
    FalseConflict,
    /// A page the TX accessed as *safe* transitioned to unsafe mid-TX.
    PageMode,
    /// Another thread acquired the software fallback lock.
    FallbackLock,
}

impl AbortKind {
    /// All abort kinds, in stable reporting order.
    pub const ALL: [AbortKind; 5] = [
        AbortKind::Conflict,
        AbortKind::Capacity,
        AbortKind::FalseConflict,
        AbortKind::PageMode,
        AbortKind::FallbackLock,
    ];
}

impl fmt::Display for AbortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortKind::Conflict => write!(f, "conflict"),
            AbortKind::Capacity => write!(f, "capacity"),
            AbortKind::FalseConflict => write!(f, "false-conflict"),
            AbortKind::PageMode => write!(f, "page-mode"),
            AbortKind::FallbackLock => write!(f, "fallback-lock"),
        }
    }
}

/// Which transaction dies when a coherence request conflicts with a running
/// TX's read/write set under eager conflict detection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ConflictPolicy {
    /// The core *receiving* the conflicting coherence request aborts
    /// (requester wins). This is the common commercial-HTM behaviour and the
    /// default.
    #[default]
    RequesterWins,
    /// The requesting core's TX aborts instead, if it is in a transaction;
    /// a non-transactional requester still kills the responder.
    ResponderWins,
}

impl fmt::Display for ConflictPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictPolicy::RequesterWins => write!(f, "requester-wins"),
            ConflictPolicy::ResponderWins => write!(f, "responder-wins"),
        }
    }
}

/// SMT configuration of the simulated cores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SmtMode {
    /// One hardware thread per core.
    #[default]
    Single,
    /// Two hardware threads share each core (and its L1), used to create
    /// transactional-capacity pressure in the L1TM experiments (§VI-D2).
    Smt2,
}

impl SmtMode {
    /// Hardware threads per core.
    #[inline]
    pub const fn ways(self) -> usize {
        match self {
            SmtMode::Single => 1,
            SmtMode::Smt2 => 2,
        }
    }
}

impl fmt::Display for SmtMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmtMode::Single => write!(f, "1 thread/core"),
            SmtMode::Smt2 => write!(f, "2-way SMT"),
        }
    }
}

/// Heap-placement policy for the simulated allocator (the Dice et al.
/// malloc-placement sensitivity axis).
///
/// `color_stride` adds that many bytes of padding after each fresh heap
/// allocation, shearing consecutive objects across cache blocks
/// ("coloring"). It acts on fresh bump allocations only — recycled chunks
/// keep their addresses — so committed program state is
/// placement-independent while transactional footprints (and hence
/// capacity aborts) are not.
///
/// # Examples
///
/// ```
/// use hintm_types::AllocConfig;
/// assert_eq!(AllocConfig::default().color_stride, 0);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub struct AllocConfig {
    /// Padding bytes inserted after each fresh heap allocation.
    pub color_stride: u64,
}

/// The simulated machine parameters (paper Table II plus the HinTM cost
/// constants from §V).
///
/// # Examples
///
/// ```
/// use hintm_types::MachineConfig;
/// let cfg = MachineConfig::default();
/// assert_eq!(cfg.num_cores, 8);
/// assert_eq!(cfg.l1_latency.raw(), 3);
/// assert_eq!(cfg.mem_latency.raw(), 100);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MachineConfig {
    /// Number of physical cores (Table II: 8).
    pub num_cores: usize,
    /// SMT ways per core.
    pub smt: SmtMode,
    /// L1 data cache size in bytes (32 KiB).
    pub l1_bytes: usize,
    /// L1 associativity (8-way).
    pub l1_ways: usize,
    /// L1 hit latency (3 cycles).
    pub l1_latency: Cycles,
    /// Shared L2 size in bytes (8 MiB).
    pub l2_bytes: usize,
    /// L2 associativity (16-way).
    pub l2_ways: usize,
    /// L2 hit latency (12 cycles).
    pub l2_latency: Cycles,
    /// Main memory latency (100 cycles).
    pub mem_latency: Cycles,
    /// Conflict-resolution policy for eager conflict detection.
    pub conflict_policy: ConflictPolicy,
    /// TLB entries per core.
    pub tlb_entries: usize,
    /// Page-walk cost on a TLB miss, charged to the accessing core.
    pub page_walk_latency: Cycles,
    /// Cost of a minor page fault: ⟨private,ro⟩ → ⟨private,rw⟩ (1450 cycles, §V).
    pub minor_fault_cost: Cycles,
    /// TLB-shootdown cost on the initiating core (6600 cycles, §V).
    pub shootdown_initiator_cost: Cycles,
    /// TLB-shootdown cost on each slave core (1450 cycles, §V).
    pub shootdown_slave_cost: Cycles,
    /// Maximum HTM retries for retry-eligible aborts before taking the
    /// software fallback lock.
    pub max_retries: u32,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            num_cores: 8,
            smt: SmtMode::Single,
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l1_latency: Cycles(3),
            l2_bytes: 8 * 1024 * 1024,
            l2_ways: 16,
            l2_latency: Cycles(12),
            mem_latency: Cycles(100),
            conflict_policy: ConflictPolicy::RequesterWins,
            tlb_entries: 64,
            page_walk_latency: Cycles(30),
            minor_fault_cost: Cycles(1450),
            shootdown_initiator_cost: Cycles(6600),
            shootdown_slave_cost: Cycles(1450),
            max_retries: 3,
        }
    }
}

impl MachineConfig {
    /// Total hardware threads in the machine.
    #[inline]
    pub fn hw_threads(&self) -> usize {
        self.num_cores * self.smt.ways()
    }

    /// Renders the configuration as the paper's Table II-style summary.
    pub fn table2_summary(&self) -> String {
        format!(
            "CPU       : {} cores, {} ({} hw threads)\n\
             L1 Cache  : {} KiB {}-way, 64B blocks, {}-cycle latency\n\
             L2 Cache  : shared {} MiB {}-way, 64B blocks, {}-cycle latency\n\
             Coherence : snoopy MESI ({})\n\
             Memory    : {}-cycle latency",
            self.num_cores,
            self.smt,
            self.hw_threads(),
            self.l1_bytes / 1024,
            self.l1_ways,
            self.l1_latency.raw(),
            self.l2_bytes / (1024 * 1024),
            self.l2_ways,
            self.l2_latency.raw(),
            self.conflict_policy,
            self.mem_latency.raw(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = MachineConfig::default();
        assert_eq!(c.num_cores, 8);
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l1_ways, 8);
        assert_eq!(c.l2_bytes, 8 * 1024 * 1024);
        assert_eq!(c.l2_ways, 16);
        assert_eq!(c.l1_latency, Cycles(3));
        assert_eq!(c.l2_latency, Cycles(12));
        assert_eq!(c.mem_latency, Cycles(100));
        assert_eq!(c.minor_fault_cost, Cycles(1450));
        assert_eq!(c.shootdown_initiator_cost, Cycles(6600));
        assert_eq!(c.shootdown_slave_cost, Cycles(1450));
    }

    #[test]
    fn hw_threads_scale_with_smt() {
        let mut c = MachineConfig::default();
        assert_eq!(c.hw_threads(), 8);
        c.smt = SmtMode::Smt2;
        assert_eq!(c.hw_threads(), 16);
    }

    #[test]
    fn abort_kind_display_and_order() {
        let names: Vec<String> = AbortKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(
            names,
            [
                "conflict",
                "capacity",
                "false-conflict",
                "page-mode",
                "fallback-lock"
            ]
        );
    }

    #[test]
    fn summary_mentions_key_params() {
        let s = MachineConfig::default().table2_summary();
        assert!(s.contains("8 cores"));
        assert!(s.contains("32 KiB"));
        assert!(s.contains("MESI"));
    }
}
