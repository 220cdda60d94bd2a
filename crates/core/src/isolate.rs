//! Security isolation (§3.4).
//!
//! Two attack classes are handled:
//!
//! * **actor state corruption** — enforced by the DMO layer: every object
//!   access is ownership-checked, and a violation surfaces as
//!   [`crate::dmo::DmoError::Protection`] (the software-managed-TLB trap on
//!   the LiquidIO firmware, hardware paging on full-OS cards);
//! * **denial of service** — a per-core watchdog timer: each execution arms
//!   it with [`WATCHDOG_BUDGET`]. The runtime prices an execution before it
//!   occupies the core, so the timer fires exactly when that price exceeds
//!   the budget: the actor is then deregistered, removed from the dispatch
//!   table and runnable queue, and its resources freed, and the core stays
//!   stalled for the whole budget.

use ipipe_sim::SimTime;

/// Execution budget of one NIC-core invocation before the watchdog kills
/// its actor.
pub const WATCHDOG_BUDGET: SimTime = SimTime::from_ms(5);

/// Whether the watchdog fires on an execution priced at `busy`: only a
/// price past the budget kills; one exactly at it completes.
pub fn watchdog_fires(busy: SimTime) -> bool {
    busy > WATCHDOG_BUDGET
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_behaved_execution_passes() {
        assert!(!watchdog_fires(SimTime::from_us(500)));
        assert!(!watchdog_fires(WATCHDOG_BUDGET));
    }

    #[test]
    fn runaway_actor_is_killed() {
        // An "infinite loop" shows up as an execution priced past the budget.
        assert!(watchdog_fires(WATCHDOG_BUDGET + SimTime::from_ns(1)));
        assert!(watchdog_fires(SimTime::from_secs(1)));
    }
}
