//! Simulation configuration.

use hintm_htm::{HtmConfig, HtmKind};
use hintm_types::MachineConfig;
use std::fmt;

/// Which HinTM classification mechanisms feed safety hints to the HTM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum HintMode {
    /// Baseline: no hints (conventional HTM).
    #[default]
    Off,
    /// Compiler hints only (HinTM-st).
    Static,
    /// Page-level dynamic classification only (HinTM-dyn).
    Dynamic,
    /// Both mechanisms (full HinTM).
    Full,
}

impl HintMode {
    /// Static hints enabled?
    pub(crate) const fn uses_static(self) -> bool {
        matches!(self, HintMode::Static | HintMode::Full)
    }

    /// Dynamic hints enabled?
    pub const fn uses_dynamic(self) -> bool {
        matches!(self, HintMode::Dynamic | HintMode::Full)
    }
}

impl fmt::Display for HintMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HintMode::Off => write!(f, "baseline"),
            HintMode::Static => write!(f, "HinTM-st"),
            HintMode::Dynamic => write!(f, "HinTM-dyn"),
            HintMode::Full => write!(f, "HinTM"),
        }
    }
}

impl std::str::FromStr for HintMode {
    type Err = String;

    /// Parses a hint mode case-insensitively: the CLI spellings (`off`,
    /// `static`/`st`, `dynamic`/`dyn`, `full`) and the
    /// [`Display`](fmt::Display) names (`baseline`, `HinTM-st`,
    /// `HinTM-dyn`, `HinTM`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "baseline" => Ok(HintMode::Off),
            "static" | "st" | "hintm-st" => Ok(HintMode::Static),
            "dynamic" | "dyn" | "hintm-dyn" => Ok(HintMode::Dynamic),
            "full" | "hintm" => Ok(HintMode::Full),
            _ => Err(format!("unknown hint mode `{s}`")),
        }
    }
}

/// Full configuration of one simulation run. The engine's fixed §V
/// costs (transaction begin/commit, abort penalty, retry backoff, LogTM
/// unroll, PStretch stretch) are constants in `engine.rs`.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Machine parameters (Table II).
    pub machine: MachineConfig,
    /// HTM parameters.
    pub htm: HtmConfig,
    /// Which hint mechanisms are active.
    pub hint_mode: HintMode,
    /// Enable the §VI-B preserve optimization in the VM.
    pub preserve: bool,
    /// Record per-committed-TX footprints (Fig. 6 CDFs).
    pub record_tx_sizes: bool,
    /// Feed every access to the sharing profiler (Fig. 1 metrics).
    pub profile_sharing: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            machine: MachineConfig::default(),
            htm: HtmConfig::new(HtmKind::P8),
            hint_mode: HintMode::Off,
            preserve: false,
            record_tx_sizes: false,
            profile_sharing: false,
        }
    }
}

impl SimConfig {
    /// A config for the given HTM kind with everything else default.
    pub fn with_htm(kind: HtmKind) -> Self {
        SimConfig {
            htm: HtmConfig::new(kind),
            ..Self::default()
        }
    }

    /// Builder-style: sets the hint mode.
    pub fn hint_mode(mut self, mode: HintMode) -> Self {
        self.hint_mode = mode;
        self
    }

    /// Builder-style: enables SMT-2 (L1TM experiments).
    pub fn smt2(mut self) -> Self {
        self.machine.smt = hintm_types::SmtMode::Smt2;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_mode_flags() {
        assert!(!HintMode::Off.uses_static() && !HintMode::Off.uses_dynamic());
        assert!(HintMode::Static.uses_static() && !HintMode::Static.uses_dynamic());
        assert!(!HintMode::Dynamic.uses_static() && HintMode::Dynamic.uses_dynamic());
        assert!(HintMode::Full.uses_static() && HintMode::Full.uses_dynamic());
    }

    #[test]
    fn hint_mode_names_parse_back() {
        use HintMode::*;
        for (mode, cli) in [
            (Off, "off"),
            (Static, "st"),
            (Dynamic, "dyn"),
            (Full, "FULL"),
        ] {
            assert_eq!(mode.to_string().parse::<HintMode>(), Ok(mode));
            assert_eq!(cli.parse::<HintMode>(), Ok(mode));
        }
        assert!("half".parse::<HintMode>().is_err());
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(HintMode::Static.to_string(), "HinTM-st");
        assert_eq!(HintMode::Dynamic.to_string(), "HinTM-dyn");
        assert_eq!(HintMode::Full.to_string(), "HinTM");
    }

    #[test]
    fn builders() {
        let c = SimConfig::with_htm(HtmKind::L1Tm)
            .hint_mode(HintMode::Full)
            .smt2();
        assert_eq!(c.htm.kind, HtmKind::L1Tm);
        assert_eq!(c.hint_mode, HintMode::Full);
        assert_eq!(c.machine.hw_threads(), 16);
    }
}
