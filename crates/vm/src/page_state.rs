//! The Fig. 2 page state machine.

use hintm_types::{AccessKind, ThreadId};
use std::fmt;

/// The HinTM page-table extension state of one page: the paper's
/// `{tid, ro, shared}` fields (§IV-B), with "untouched" represented by the
/// page being absent from the table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PageState {
    /// Accessed only by `owner`, read-only so far.
    PrivateRo(ThreadId),
    /// Accessed only by `owner`, written at least once.
    PrivateRw(ThreadId),
    /// Read by multiple threads, never written since becoming shared.
    SharedRo,
    /// Read-write shared: unsafe, terminal.
    SharedRw,
}

impl PageState {
    /// Is a **load** by `tid` of a page in this state safe (§III-B)?
    pub(crate) fn load_is_safe(self, tid: ThreadId) -> bool {
        match self {
            PageState::PrivateRo(o) | PageState::PrivateRw(o) => o == tid,
            PageState::SharedRo => true,
            PageState::SharedRw => false,
        }
    }

    /// Is the page in a safe state for *some* reader (Fig. 1's safe-page
    /// census)?
    pub(crate) fn is_safe_page(self) -> bool {
        !matches!(self, PageState::SharedRw)
    }
}

impl fmt::Display for PageState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageState::PrivateRo(t) => write!(f, "<private({t}),ro>"),
            PageState::PrivateRw(t) => write!(f, "<private({t}),rw>"),
            PageState::SharedRo => write!(f, "<shared,ro>"),
            PageState::SharedRw => write!(f, "<shared,rw>"),
        }
    }
}

/// Page safety as seen by the TLB for one accessing thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageSafety {
    /// Loads of this page by this thread are safe.
    SafeForLoads,
    /// The page must be tracked normally.
    Unsafe,
}

/// The side effect of applying one access to the state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transition {
    /// No state change (or first touch).
    None,
    /// ⟨private,ro⟩ → ⟨private,rw⟩ by the owner: minor page fault
    /// (1450 cycles, §V).
    MinorFault,
    /// A benign downgrade to ⟨shared,ro⟩: no abort, no shootdown.
    ToSharedRo,
    /// Safe → unsafe (→ ⟨shared,rw⟩): TLB shootdown plus page-mode abort of
    /// every active TX that safely touched the page.
    ToSharedRw,
}

/// Applies an access by `tid` to a page in `state` (or `None` if untouched).
///
/// Returns the new state and the transition event. `preserve` enables the
/// §VI-B optimization (remote reads of ⟨private,rw⟩ downgrade to
/// ⟨shared,ro⟩ instead of going unsafe).
pub(crate) fn step(
    state: Option<PageState>,
    tid: ThreadId,
    kind: AccessKind,
    preserve: bool,
) -> (PageState, Transition) {
    use PageState::*;
    match state {
        None => match kind {
            AccessKind::Load => (PrivateRo(tid), Transition::None),
            AccessKind::Store => (PrivateRw(tid), Transition::None),
        },
        Some(PrivateRo(o)) if o == tid => match kind {
            AccessKind::Load => (PrivateRo(o), Transition::None),
            AccessKind::Store => (PrivateRw(o), Transition::MinorFault),
        },
        Some(PrivateRo(_)) => match kind {
            AccessKind::Load => (SharedRo, Transition::ToSharedRo),
            AccessKind::Store => (SharedRw, Transition::ToSharedRw),
        },
        Some(PrivateRw(o)) if o == tid => (PrivateRw(o), Transition::None),
        Some(PrivateRw(_)) => {
            if preserve && kind == AccessKind::Load {
                (SharedRo, Transition::ToSharedRo)
            } else {
                (SharedRw, Transition::ToSharedRw)
            }
        }
        Some(SharedRo) => match kind {
            AccessKind::Load => (SharedRo, Transition::None),
            AccessKind::Store => (SharedRw, Transition::ToSharedRw),
        },
        Some(SharedRw) => (SharedRw, Transition::None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PageState::*;

    const X: ThreadId = ThreadId(0);
    const Y: ThreadId = ThreadId(1);

    #[test]
    fn first_touch_sets_private() {
        assert_eq!(
            step(None, X, AccessKind::Load, false),
            (PrivateRo(X), Transition::None)
        );
        assert_eq!(
            step(None, X, AccessKind::Store, false),
            (PrivateRw(X), Transition::None)
        );
    }

    #[test]
    fn owner_write_of_ro_page_minor_faults() {
        assert_eq!(
            step(Some(PrivateRo(X)), X, AccessKind::Store, false),
            (PrivateRw(X), Transition::MinorFault)
        );
    }

    #[test]
    fn owner_accesses_stay_private() {
        assert_eq!(
            step(Some(PrivateRo(X)), X, AccessKind::Load, false),
            (PrivateRo(X), Transition::None)
        );
        assert_eq!(
            step(Some(PrivateRw(X)), X, AccessKind::Load, false),
            (PrivateRw(X), Transition::None)
        );
        assert_eq!(
            step(Some(PrivateRw(X)), X, AccessKind::Store, false),
            (PrivateRw(X), Transition::None)
        );
    }

    #[test]
    fn remote_read_of_ro_page_shares_safely() {
        assert_eq!(
            step(Some(PrivateRo(X)), Y, AccessKind::Load, false),
            (SharedRo, Transition::ToSharedRo)
        );
    }

    #[test]
    fn remote_write_of_ro_page_goes_unsafe() {
        assert_eq!(
            step(Some(PrivateRo(X)), Y, AccessKind::Store, false),
            (SharedRw, Transition::ToSharedRw)
        );
    }

    #[test]
    fn remote_access_of_rw_page_goes_unsafe_by_default() {
        assert_eq!(
            step(Some(PrivateRw(X)), Y, AccessKind::Load, false),
            (SharedRw, Transition::ToSharedRw)
        );
        assert_eq!(
            step(Some(PrivateRw(X)), Y, AccessKind::Store, false),
            (SharedRw, Transition::ToSharedRw)
        );
    }

    #[test]
    fn preserve_downgrades_remote_read_of_rw_page() {
        assert_eq!(
            step(Some(PrivateRw(X)), Y, AccessKind::Load, true),
            (SharedRo, Transition::ToSharedRo)
        );
        // Writes still go unsafe even with preserve.
        assert_eq!(
            step(Some(PrivateRw(X)), Y, AccessKind::Store, true),
            (SharedRw, Transition::ToSharedRw)
        );
    }

    #[test]
    fn shared_ro_write_goes_unsafe() {
        assert_eq!(
            step(Some(SharedRo), X, AccessKind::Store, false),
            (SharedRw, Transition::ToSharedRw)
        );
        assert_eq!(
            step(Some(SharedRo), Y, AccessKind::Load, false),
            (SharedRo, Transition::None)
        );
    }

    #[test]
    fn shared_rw_is_terminal() {
        for kind in [AccessKind::Load, AccessKind::Store] {
            for tid in [X, Y] {
                assert_eq!(
                    step(Some(SharedRw), tid, kind, true),
                    (SharedRw, Transition::None)
                );
            }
        }
    }

    #[test]
    fn load_safety_by_state() {
        assert!(PrivateRo(X).load_is_safe(X));
        assert!(!PrivateRo(X).load_is_safe(Y));
        assert!(PrivateRw(X).load_is_safe(X));
        assert!(!PrivateRw(X).load_is_safe(Y));
        assert!(SharedRo.load_is_safe(X) && SharedRo.load_is_safe(Y));
        assert!(!SharedRw.load_is_safe(X));
    }

    #[test]
    fn safe_page_census() {
        assert!(PrivateRo(X).is_safe_page());
        assert!(PrivateRw(X).is_safe_page());
        assert!(SharedRo.is_safe_page());
        assert!(!SharedRw.is_safe_page());
    }

    #[test]
    fn display_nonempty() {
        for s in [PrivateRo(X), PrivateRw(X), SharedRo, SharedRw] {
            assert!(!s.to_string().is_empty());
        }
    }

    #[test]
    fn at_most_one_unsafe_transition_per_page() {
        // Walk a page through its whole life; count ToSharedRw events.
        let mut state: Option<PageState> = None;
        let seq = [
            (X, AccessKind::Load),
            (X, AccessKind::Store),
            (Y, AccessKind::Load),
            (Y, AccessKind::Store),
            (X, AccessKind::Store),
            (Y, AccessKind::Load),
        ];
        let mut unsafe_transitions = 0;
        for (t, k) in seq {
            let (next, tr) = step(state, t, k, false);
            if tr == Transition::ToSharedRw {
                unsafe_transitions += 1;
            }
            state = Some(next);
        }
        assert_eq!(unsafe_transitions, 1);
    }
}
