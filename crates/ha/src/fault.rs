//! Process faults against redundant upper controllers: the one schedule the
//! set polls each control tick.
//!
//! Unlike link faults, which degrade the mesh, process faults kill the
//! *brain*. A fault is a pure description keyed on the deterministic
//! simulation tick (the same clock `FaultClock` and the agent-side leases
//! run on), so the same schedule over the same run always kills or freezes
//! the same controller at the same tick.

/// A process-level fault against one redundant upper controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessFault {
    /// SIGKILL-style: the controller dies at `at_tick` and never returns.
    CrashController {
        /// Replica id of the controller to kill.
        controller: u32,
        /// Simulation tick at which it dies.
        at_tick: u64,
    },
    /// SIGSTOP/SIGCONT-style: the controller is frozen (holds its lease but
    /// makes no progress) over `[from_tick, to_tick)`, then resumes.
    FreezeController {
        /// Replica id of the controller to freeze.
        controller: u32,
        /// First frozen tick (inclusive).
        from_tick: u64,
        /// First tick after the freeze (exclusive).
        to_tick: u64,
    },
}

impl ProcessFault {
    /// The replica id this fault targets.
    #[must_use]
    pub fn controller(&self) -> u32 {
        match self {
            ProcessFault::CrashController { controller, .. }
            | ProcessFault::FreezeController { controller, .. } => *controller,
        }
    }
}

/// Whether `controller` has a crash fault in effect at `tick` (permanent).
pub(crate) fn crashed_at(faults: &[ProcessFault], controller: u32, tick: u64) -> bool {
    faults.iter().any(|f| {
        matches!(f, ProcessFault::CrashController { controller: c, at_tick }
            if *c == controller && *at_tick <= tick)
    })
}

/// Whether `controller` is inside a freeze window (`from <= tick < to`).
pub(crate) fn frozen_at(faults: &[ProcessFault], controller: u32, tick: u64) -> bool {
    faults.iter().any(|f| {
        matches!(f, ProcessFault::FreezeController { controller: c, from_tick, to_tick }
            if *c == controller && *from_tick <= tick && tick < *to_tick)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_faults_are_permanent_from_their_tick() {
        let faults = [ProcessFault::CrashController {
            controller: 1,
            at_tick: 600,
        }];
        assert!(!crashed_at(&faults, 1, 0));
        assert!(!crashed_at(&faults, 1, 599));
        assert!(crashed_at(&faults, 1, 600));
        assert!(crashed_at(&faults, 1, 10_000)); // no restart, ever
        assert!(!crashed_at(&faults, 0, 10_000)); // other replicas live on
        assert!(!frozen_at(&faults, 1, 700)); // dead, not frozen
    }

    #[test]
    fn freeze_faults_follow_half_open_windows() {
        let faults = [ProcessFault::FreezeController {
            controller: 2,
            from_tick: 100,
            to_tick: 150,
        }];
        assert!(!frozen_at(&faults, 2, 99));
        assert!(frozen_at(&faults, 2, 100));
        assert!(frozen_at(&faults, 2, 149));
        assert!(!frozen_at(&faults, 2, 150)); // thawed
        assert!(!frozen_at(&faults, 0, 120));
        assert!(!crashed_at(&faults, 2, 120)); // frozen, not dead
        assert_eq!(faults[0].controller(), 2);
    }
}
