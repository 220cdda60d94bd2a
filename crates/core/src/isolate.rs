//! Security isolation (§3.4).
//!
//! Two attack classes are handled:
//!
//! * **actor state corruption** — enforced by the DMO layer: every object
//!   access is ownership-checked, and a violation surfaces as
//!   [`crate::dmo::DmoError::Protection`] (the software-managed-TLB trap on
//!   the LiquidIO firmware, hardware paging on full-OS cards);
//! * **denial of service** — a per-core watchdog timer: each execution arms
//!   a timer; an actor that exceeds the budget is deregistered, removed from
//!   the dispatch table and runnable queue, and its resources freed.

use crate::actor::ActorId;
use ipipe_sim::SimTime;

/// Per-core watchdog timers (the LiquidIO hardware timer has 16 timer
/// rings — one per core).
#[derive(Debug, Clone)]
pub struct Watchdog {
    timeout: SimTime,
    /// (actor, deadline) armed per core.
    armed: Vec<Option<(ActorId, SimTime)>>,
    /// Actors killed so far.
    killed: Vec<ActorId>,
}

impl Watchdog {
    /// Watchdog over `cores` cores with the given execution budget.
    pub fn new(cores: u32, timeout: SimTime) -> Watchdog {
        Watchdog {
            timeout,
            armed: vec![None; cores as usize],
            killed: Vec::new(),
        }
    }

    /// The configured execution budget.
    pub fn timeout(&self) -> SimTime {
        self.timeout
    }

    /// Arm the timer for `core` at handler entry ("when an actor executes,
    /// it clears out the timer and initializes the time interval").
    pub fn arm(&mut self, core: u32, actor: ActorId, now: SimTime) {
        self.armed[core as usize] = Some((actor, now + self.timeout));
    }

    /// Disarm after a well-behaved completion.
    pub fn disarm(&mut self, core: u32) {
        self.armed[core as usize] = None;
    }

    /// Check an execution that is about to occupy `core` until `end`;
    /// returns the offending actor if the watchdog would fire first.
    /// The runtime must then deregister the actor (§3.4).
    pub fn check_execution(&mut self, core: u32, end: SimTime) -> Option<ActorId> {
        let (actor, deadline) = self.armed[core as usize]?;
        if end > deadline {
            self.armed[core as usize] = None;
            self.killed.push(actor);
            Some(actor)
        } else {
            None
        }
    }

    /// Actors killed so far, in kill order.
    pub fn killed(&self) -> &[ActorId] {
        &self.killed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_behaved_execution_passes() {
        let mut w = Watchdog::new(2, SimTime::from_ms(1));
        w.arm(0, 7, SimTime::ZERO);
        assert_eq!(w.check_execution(0, SimTime::from_us(500)), None);
        w.disarm(0);
        assert!(w.killed().is_empty());
    }

    #[test]
    fn runaway_actor_is_killed() {
        let mut w = Watchdog::new(2, SimTime::from_ms(1));
        w.arm(1, 9, SimTime::from_us(100));
        // An "infinite loop" shows up as an execution ending after the deadline.
        assert_eq!(w.check_execution(1, SimTime::from_ms(10)), Some(9));
        assert_eq!(w.killed(), &[9]);
        // Timer is consumed; a second check does not double-kill.
        assert_eq!(w.check_execution(1, SimTime::from_ms(20)), None);
    }

    #[test]
    fn timers_are_per_core() {
        let mut w = Watchdog::new(2, SimTime::from_us(10));
        w.arm(0, 1, SimTime::ZERO);
        w.arm(1, 2, SimTime::ZERO);
        assert_eq!(w.check_execution(0, SimTime::from_us(50)), Some(1));
        assert_eq!(w.check_execution(1, SimTime::from_us(5)), None);
    }

    #[test]
    fn unarmed_core_never_fires() {
        let mut w = Watchdog::new(1, SimTime::from_us(10));
        assert_eq!(w.check_execution(0, SimTime::from_secs(1)), None);
    }
}
