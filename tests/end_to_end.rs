//! Cross-crate integration tests: full applications on the full runtime over
//! the full hardware model — the paths the paper's evaluation exercises.

use ipipe_repro::apps::dt::actors::{client_gen as dt_client, deploy_dt};
use ipipe_repro::apps::rkv::actors::{client_gen as rkv_client, deploy_rkv};
use ipipe_repro::apps::rta::actors::{client_gen as rta_client, deploy_rta};
use ipipe_repro::ipipe::prelude::*;
use ipipe_repro::ipipe::rt::{ClientReq, Cluster, RuntimeMode};
use ipipe_repro::ipipe::sched::Loc;
use ipipe_repro::nicsim::{CN2350, CN2360, STINGRAY_PS225};
use ipipe_repro::workload::kv::KvWorkload;
use ipipe_repro::workload::rta::RtaWorkload;
use ipipe_repro::workload::txn::TxnWorkload;

fn rkv_cluster(mode: RuntimeMode, seed: u64) -> Cluster {
    let mut c = Cluster::builder(CN2350)
        .servers(3)
        .clients(1)
        .mode(mode)
        .seed(seed)
        .build();
    let dep = deploy_rkv(&mut c, &[0, 1, 2], 8 << 20);
    let wl = KvWorkload::paper_default(512, seed);
    c.set_client(0, rkv_client(dep.consensus[0], 512, wl), 32);
    c
}

#[test]
fn rkv_end_to_end_all_modes() {
    for mode in [
        RuntimeMode::IPipe,
        RuntimeMode::HostDpdk,
        RuntimeMode::HostIPipe,
    ] {
        let mut c = rkv_cluster(mode, 1);
        c.run_for(SimTime::from_ms(10));
        let done = c.completions().count();
        assert!(done > 1_000, "{mode:?}: done={done}");
        c.audit().assert_clean();
    }
}

#[test]
fn dt_transactions_on_every_card() {
    for spec in [CN2350, CN2360, STINGRAY_PS225] {
        let mut c = Cluster::builder(spec).servers(3).clients(1).seed(3).build();
        let dep = deploy_dt(&mut c, 0, &[1, 2], 1 << 20);
        let wl = TxnWorkload::paper_default(512, 3);
        c.set_client(0, dt_client(dep.coordinator, 512, wl), 16);
        c.run_for(SimTime::from_ms(10));
        assert!(
            c.completions().count() > 300,
            "{}: done={}",
            spec.name,
            c.completions().count()
        );
        c.audit().assert_clean();
    }
}

#[test]
fn rta_saturated_on_every_card() {
    for spec in [CN2350, CN2360, STINGRAY_PS225] {
        let mut c = Cluster::builder(spec).servers(3).clients(1).seed(5).build();
        let dep = deploy_rta(&mut c, &[0, 1, 2]);
        let wl = RtaWorkload::paper_default(5);
        c.set_client(0, rta_client(dep.filters, 1024, wl), 128);
        c.run_for(SimTime::from_ms(3));
        c.reset_measurements();
        c.run_for(SimTime::from_ms(8));
        let done = c.completions().count();
        assert!(done > 5_000, "{}: done={done}", spec.name);
        c.audit().assert_clean();
    }
}

#[test]
fn rta_pipeline_with_forced_ranker_migration() {
    let cfg = ipipe_repro::ipipe::sched::SchedConfig::for_nic(&CN2350).no_migration();
    let mut c = Cluster::builder(CN2350)
        .servers(3)
        .clients(1)
        .sched(cfg)
        .seed(4)
        .build();
    let dep = deploy_rta(&mut c, &[0, 1, 2]);
    let ranker = dep.topo.ranker[0];
    let wl = RtaWorkload::paper_default(4);
    c.set_client(0, rta_client(dep.filters, 512, wl), 32);
    c.run_for(SimTime::from_ms(5));
    assert_eq!(c.actor_location(ranker), Some(Loc::Nic));
    assert!(c.force_migrate(ranker));
    c.run_for(SimTime::from_ms(20));
    assert_eq!(c.actor_location(ranker), Some(Loc::Host));
    // The pipeline still flows after the move.
    let before = c.completions().count();
    c.run_for(SimTime::from_ms(5));
    assert!(c.completions().count() > before);
    // The migration produced a Fig 18-style report with non-trivial phases.
    let r = c
        .migration_reports(0)
        .iter()
        .find(|r| r.actor == ranker.actor)
        .expect("report recorded");
    assert!(r.total() > SimTime::from_us(500));
    assert!(
        r.phase_times[2] > SimTime::ZERO,
        "state must move in phase 3"
    );
    c.audit().assert_clean();
}

#[test]
fn push_then_pull_migration_round_trip() {
    use ipipe_repro::ipipe::actor::{ActorCtx, ActorLogic, Request};
    struct Heavy {
        cost: std::rc::Rc<std::cell::Cell<u64>>,
    }
    impl ActorLogic for Heavy {
        fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
            ctx.charge(SimTime::from_ns(self.cost.get()));
            ctx.reply(req, 64, None);
        }
    }
    let cost = std::rc::Rc::new(std::cell::Cell::new(120_000u64)); // 120us: overloads the NIC
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .seed(77)
        .build();
    let a = c.register_actor(
        0,
        "heavy",
        Box::new(Heavy { cost: cost.clone() }),
        Placement::Nic,
    );
    c.set_client(
        0,
        Box::new(move |rng, _| ClientReq {
            dst: a,
            wire_size: 512,
            flow: rng.below(1 << 20),
            payload: None,
        }),
        96,
    );
    // Saturation: sojourns blow past mean_thresh -> push migration.
    c.run_for(SimTime::from_ms(30));
    assert_eq!(
        c.actor_location(a),
        Some(Loc::Host),
        "overloaded actor should have been pushed to the host"
    );
    // Load collapses: the handler becomes trivial and the offered load
    // drops to a trickle; the idle NIC pulls the actor back (ALG 1 lines
    // 21-23, gated on CPU headroom).
    cost.set(1_000);
    c.set_client(
        0,
        Box::new(move |rng, _| ClientReq {
            dst: a,
            wire_size: 512,
            flow: rng.below(1 << 20),
            payload: None,
        }),
        2,
    );
    c.run_for(SimTime::from_ms(60));
    assert_eq!(
        c.actor_location(a),
        Some(Loc::Nic),
        "idle NIC should pull the actor back"
    );
    // Both directions produced migration reports.
    assert!(c.migration_reports(0).len() >= 2);
    c.audit().assert_clean();
}

#[test]
fn determinism_across_identical_runs() {
    let run = |seed| {
        let mut c = rkv_cluster(RuntimeMode::IPipe, seed);
        c.run_for(SimTime::from_ms(6));
        c.audit().assert_clean();
        (
            c.completions().count(),
            c.completions().mean().as_ns(),
            c.completions().p99().as_ns(),
        )
    };
    assert_eq!(run(7), run(7), "same seed must reproduce exactly");
    assert_ne!(run(7), run(8), "different seeds should differ");
}
