//! Memory access descriptors and safety hints.

use crate::{Addr, SiteId};
use std::fmt;

/// The kind of a memory access: load or store.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AccessKind {
    /// A read (load) access.
    Load,
    /// A write (store) access.
    Store,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Load`].
    #[inline]
    pub const fn is_load(self) -> bool {
        matches!(self, AccessKind::Load)
    }

    /// Returns `true` for [`AccessKind::Store`].
    #[inline]
    pub const fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Load => write!(f, "load"),
            AccessKind::Store => write!(f, "store"),
        }
    }
}

/// The static safety flag carried by an access, as produced by the compiler
/// pass (§IV-A). This is HinTM's ISA extension: `load_word_safe` /
/// `store_word_safe` versus the conventional instructions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SafetyHint {
    /// Conventional access: the HTM must track it.
    #[default]
    Unsafe,
    /// Compiler-proven safe access: the HTM controller skips tracking.
    Safe,
}

impl SafetyHint {
    /// Returns `true` if the hint marks the access safe.
    #[inline]
    pub const fn is_safe(self) -> bool {
        matches!(self, SafetyHint::Safe)
    }
}

impl fmt::Display for SafetyHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafetyHint::Unsafe => write!(f, "unsafe"),
            SafetyHint::Safe => write!(f, "safe"),
        }
    }
}

/// The final classification of a dynamic access after combining the static
/// hint with the dynamic page-level classification (§III).
///
/// Used for statistics (the paper's Fig. 5 access breakdown) and by the HTM
/// controller to decide whether to allocate tracking state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SafetyClass {
    /// Marked safe by the static compiler pass.
    StaticSafe,
    /// Marked safe at runtime by the page-level dynamic classifier.
    DynamicSafe,
    /// Tracked normally by the HTM.
    Unsafe,
}

impl fmt::Display for SafetyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafetyClass::StaticSafe => write!(f, "static-safe"),
            SafetyClass::DynamicSafe => write!(f, "dynamic-safe"),
            SafetyClass::Unsafe => write!(f, "unsafe"),
        }
    }
}

/// A single dynamic memory access issued by a workload.
///
/// # Examples
///
/// ```
/// use hintm_types::{Addr, AccessKind, MemAccess, SafetyHint, SiteId};
///
/// let a = MemAccess::load(Addr::new(0x1000), SiteId(3));
/// assert!(a.kind.is_load());
/// assert_eq!(a.hint, SafetyHint::Unsafe);
/// let s = MemAccess::store(Addr::new(0x2000), SiteId(4)).with_hint(SafetyHint::Safe);
/// assert!(s.hint.is_safe());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemAccess {
    /// The byte address accessed.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// The static access site that issued this access.
    pub site: SiteId,
    /// The static (compiler) safety hint; dynamic classification is applied
    /// later, per access, by the simulator's TLB lookup.
    pub hint: SafetyHint,
}

impl MemAccess {
    /// Creates a load access with an [`SafetyHint::Unsafe`] hint.
    #[inline]
    pub const fn load(addr: Addr, site: SiteId) -> Self {
        MemAccess {
            addr,
            kind: AccessKind::Load,
            site,
            hint: SafetyHint::Unsafe,
        }
    }

    /// Creates a store access with an [`SafetyHint::Unsafe`] hint.
    #[inline]
    pub const fn store(addr: Addr, site: SiteId) -> Self {
        MemAccess {
            addr,
            kind: AccessKind::Store,
            site,
            hint: SafetyHint::Unsafe,
        }
    }

    /// Returns the same access with the given static hint.
    #[inline]
    pub const fn with_hint(mut self, hint: SafetyHint) -> Self {
        self.hint = hint;
        self
    }
}

impl fmt::Display for MemAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({}, {})",
            self.kind, self.addr, self.site, self.hint
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds() {
        assert!(AccessKind::Load.is_load());
        assert!(!AccessKind::Load.is_store());
        assert!(AccessKind::Store.is_store());
        assert_eq!(AccessKind::Load.to_string(), "load");
    }

    #[test]
    fn hint_default_is_unsafe() {
        assert_eq!(SafetyHint::default(), SafetyHint::Unsafe);
        assert!(!SafetyHint::Unsafe.is_safe());
        assert!(SafetyHint::Safe.is_safe());
    }

    #[test]
    fn access_builders() {
        let a = MemAccess::load(Addr::new(64), SiteId(1));
        assert_eq!(a.kind, AccessKind::Load);
        assert_eq!(a.addr.raw(), 64);
        let b = MemAccess::store(Addr::new(65), SiteId(2)).with_hint(SafetyHint::Safe);
        assert_eq!(b.kind, AccessKind::Store);
        assert!(b.hint.is_safe());
        assert!(!format!("{b}").is_empty());
    }
}
