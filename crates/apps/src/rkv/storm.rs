//! LSM-compaction-style background storm actor.
//!
//! The overload scenario needs more than a traffic spike: iPipe's DRR
//! isolation is only stressed when something *else* competes for the wimpy
//! cores while clients hammer the ingress. `CompactionStorm` is that
//! something — a self-ticking NIC-placed actor that charges an
//! LSM-merge-shaped cost (fixed overhead + ~0.7ns/B, the same model as
//! [`crate::rkv::CompactionActor`]) every `period`, and multiplies its
//! chunk size by `storm_factor` inside a configured window. Purely
//! time-driven and seeded by nothing, so runs are byte-identical for any
//! shard count.

use ipipe::prelude::*;

/// Configuration of one background compaction storm.
#[derive(Debug, Clone, Copy)]
pub struct StormCfg {
    /// Tick period: one compaction chunk is charged per tick.
    pub period: SimTime,
    /// Bytes merged per tick outside the storm window.
    pub chunk_bytes: u64,
    /// Storm window start (inclusive).
    pub storm_from: SimTime,
    /// Storm window end (exclusive).
    pub storm_until: SimTime,
    /// Chunk multiplier inside the window.
    pub storm_factor: u64,
}

impl StormCfg {
    /// A background trickle (64KB every 50us) that erupts 10x inside
    /// `[from, until)` — the compaction-storm half of the `rkv-overload`
    /// scenario.
    pub fn erupting(from: SimTime, until: SimTime) -> StormCfg {
        StormCfg {
            period: SimTime::from_us(50),
            chunk_bytes: 64 << 10,
            storm_from: from,
            storm_until: until,
            storm_factor: 10,
        }
    }
}

/// The self-ticking storm actor. Placed on the NIC (not host-pinned like
/// the real compactor) so its merge work competes with request serving on
/// the wimpy cores; the scheduler's DRR downgrade must isolate it.
pub struct CompactionStorm {
    cfg: StormCfg,
}

impl CompactionStorm {
    /// A storm with the given shape.
    pub fn new(cfg: StormCfg) -> CompactionStorm {
        CompactionStorm { cfg }
    }

    fn arm(&self, ctx: &mut ActorCtx<'_>) {
        let me = Address {
            node: ctx.node(),
            actor: ctx.actor_id(),
        };
        ctx.send_after(self.cfg.period, me, 0, 64, 0, None);
    }
}

impl ActorLogic for CompactionStorm {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        self.arm(ctx);
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, _req: Request) {
        let now = ctx.now();
        let stormy = now >= self.cfg.storm_from && now < self.cfg.storm_until;
        let bytes = if stormy {
            self.cfg.chunk_bytes * self.cfg.storm_factor.max(1)
        } else {
            self.cfg.chunk_bytes
        };
        // Same merge cost model as the real compactor: fixed overhead plus
        // ~0.7ns per byte of sequential merge.
        ctx.charge(SimTime::from_ns(2_000 + (bytes as f64 * 0.7) as u64));
        self.arm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe::rt::Cluster;
    use ipipe_sim::obs::{Obs, ObsConfig, TraceLevel};

    #[test]
    fn storm_ticks_periodically_and_intensifies_in_window() {
        let obs = Obs::new(ObsConfig {
            level: TraceLevel::Off,
            trace_capacity: 1 << 10,
        });
        let mut c = Cluster::builder(ipipe_nicsim::CN2350)
            .servers(1)
            .clients(1)
            .obs(obs.clone())
            .seed(3)
            .build();
        let cfg = StormCfg {
            period: SimTime::from_us(100),
            chunk_bytes: 32 << 10,
            storm_from: SimTime::from_ms(2),
            storm_until: SimTime::from_ms(4),
            storm_factor: 10,
        };
        c.register_actor(
            0,
            "storm",
            Box::new(CompactionStorm::new(cfg)),
            Placement::Nic,
        );
        c.run_for(SimTime::from_ms(6));
        // The storm is the node's one actor: every execution is a tick.
        let r = obs.registry();
        let n = r.counter_on("rt.exec.nic", 0).get() + r.counter_on("rt.exec.host", 0).get();
        // ~10 ticks/ms for 6ms; each tick's cost stretches the period a
        // little, so accept a broad band — zero or runaway both fail.
        assert!((30..=61).contains(&n), "ticks={n}");
        c.audit().assert_clean();
    }

    #[test]
    fn storm_is_deterministic() {
        let run = || {
            let mut c = Cluster::builder(ipipe_nicsim::CN2350)
                .servers(1)
                .clients(1)
                .seed(3)
                .build();
            c.register_actor(
                0,
                "storm",
                Box::new(CompactionStorm::new(StormCfg::erupting(
                    SimTime::from_ms(1),
                    SimTime::from_ms(2),
                ))),
                Placement::Nic,
            );
            c.run_for(SimTime::from_ms(3));
            c.audit().assert_clean();
            c.export_canonical_jsonl()
        };
        assert_eq!(run(), run());
    }
}
