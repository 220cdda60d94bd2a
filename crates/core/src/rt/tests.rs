use super::client::Verdict;
use super::*;
use crate::actor::ActorCtx;
use crate::admission::ClassCfg;
use crate::migrate::MigrationDir;
use ipipe_nicsim::CN2350;
use proptest::prelude::{
    prop, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
};
use std::collections::{BTreeMap, BTreeSet};

struct Echo {
    cost: SimTime,
}
impl ActorLogic for Echo {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
        ctx.charge(self.cost);
        ctx.reply(req, 64, None);
    }
}

/// A retry policy suited to intra-rack RPCs: 300us initial timeout, 5ms cap.
fn lan_retry() -> RetryPolicy {
    RetryPolicy {
        timeout: SimTime::from_us(300),
        cap: SimTime::from_ms(5),
        max_tries: 16,
    }
}

fn echo_cluster(cost_us: u64) -> (Cluster, Address) {
    sharded_echo_cluster(cost_us, 1)
}

/// [`echo_cluster`] cut into `shards` shards (two put the client on its
/// own).
fn sharded_echo_cluster(cost_us: u64, shards: usize) -> (Cluster, Address) {
    echo_on(Cluster::builder(CN2350).seed(7).shards(shards), cost_us)
}

/// `b` built with one server and one client, and an echo actor of `cost_us`
/// on the server's NIC.
fn echo_on(b: ClusterBuilder, cost_us: u64) -> (Cluster, Address) {
    let mut c = b.servers(1).clients(1).build();
    let a = c.register_actor(
        0,
        "echo",
        Box::new(Echo {
            cost: SimTime::from_us(cost_us),
        }),
        Placement::Nic,
    );
    (c, a)
}

#[test]
fn closed_loop_echo_completes_requests() {
    let (mut c, a) = echo_cluster(2);
    c.run_closed_loop(a, 8, 512, SimTime::from_ms(5));
    let done = c.completions().count();
    assert!(done > 1_000, "done={done}");
    // Latency must exceed network base RTT + service.
    assert!(c.completions().mean() > SimTime::from_us(2));
    assert!(c.completions().p99() >= c.completions().p50());
    assert_eq!(c.actor_location(a), Some(Loc::Nic));
}

/// Node ids are `u16`: 65,535 nodes is the largest cluster that builds (ids
/// 0..=65,534), and one more used to wrap `shard_starts` and `NodeRt::id`
/// silently instead of being refused.
#[test]
#[should_panic(expected = "1 servers + 65535 clients do not fit u16 node ids")]
fn cluster_size_is_bounded_by_u16_node_ids() {
    let sized = |clients| Cluster::builder(CN2350).servers(1).clients(clients).build();
    let largest = sized(65_534);
    assert_eq!(largest.clients.len(), 65_534);
    sized(65_535);
}

/// Changing a closed loop's depth mid-run keeps its ledger: the requests
/// still on the wire drain through the normal completion path while the
/// loop re-gates on the new depth, and a deeper loop is topped up.
#[test]
fn mid_run_depth_change_conserves_inflight_requests() {
    let (mut c, a) = echo_cluster(2);
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
    c.run_for(SimTime::from_ms(5));
    // A shallower loop while 96 requests are still in flight.
    c.set_client_depth(0, 2);
    let at_change = c.completions().count();
    c.run_for(SimTime::from_ms(5));
    assert!(
        c.completions().count() > at_change,
        "loop must keep flowing after the change"
    );
    c.audit().assert_clean();
    // And the deepening direction: 2 -> 64 tops the loop back up.
    c.set_client_depth(0, 64);
    c.run_for(SimTime::from_us(20));
    let state = c.clients[0].as_ref().expect("installed");
    assert_eq!(state.inflight.len(), 64);
    c.run_for(SimTime::from_ms(5));
    c.audit().assert_clean();
}

/// A client is installed once: a second generator panics, whichever loop
/// either one runs.
#[test]
#[should_panic(expected = "client 0 already has a generator")]
fn a_second_generator_panics() {
    let (mut c, a) = echo_cluster(2);
    echo_client(&mut c, a, 8);
    let open = OpenLoopCfg {
        rate_rps: 1e6,
        until: SimTime::from_ms(2),
    };
    c.set_client_open_loop(0, echo_gen(a), open);
}

#[test]
#[should_panic(expected = "client 0 already has a retry policy")]
fn a_second_retry_policy_panics() {
    let (mut c, a) = echo_cluster(2);
    echo_client(&mut c, a, 8);
    c.set_client_retry(0, lan_retry(), None);
    c.set_client_retry(0, lan_retry(), None);
}

/// 50us echoes on `spec` under a saturating closed loop (64 outstanding,
/// FCFS only, no migration), measured for 10 ms after a 2 ms warm-up.
fn saturated_echo(spec: NicSpec) -> Cluster {
    let cfg = SchedConfig::for_nic(&spec)
        .with_discipline(crate::sched::Discipline::FcfsOnly)
        .no_migration();
    let (mut c, a) = echo_on(Cluster::builder(spec).sched(cfg).seed(7), 50);
    c.set_client(
        0,
        Box::new(move |rng, _| ClientReq {
            dst: a,
            wire_size: 256,
            flow: rng.below(1 << 20),
            payload: None,
        }),
        64,
    );
    c.run_for(SimTime::from_ms(2));
    c.reset_measurements();
    c.run_for(SimTime::from_ms(10));
    c
}

#[test]
fn throughput_respects_core_limits() {
    // A 50us handler on a 12-core NIC cannot exceed 12/50us = 240k rps.
    let rps = saturated_echo(CN2350).throughput_rps();
    assert!(rps < 245_000.0, "rps={rps}");
    assert!(rps > 150_000.0, "rps={rps}");
}

/// The builder holds any card as given: a synthesized design-space card
/// builds, runs and audits clean.
#[test]
fn a_synthesized_card_runs_and_audits_clean() {
    let spec = ipipe_nicsim::dse::DesignAxes::tiny().enumerate()[0].spec;
    let (mut c, a) = echo_on(Cluster::builder(spec).seed(3), 2);
    c.run_closed_loop(a, 8, 512, SimTime::from_ms(2));
    assert!(c.completions().count() > 500);
    c.audit().assert_clean();
}

/// A modified Table 1 card keeps its modification: a 4-core CN2350 under
/// saturating load keeps at most 4 NIC cores busy, not the stock 12.
#[test]
fn a_modified_card_keeps_its_core_count() {
    let cores = saturated_echo(NicSpec { cores: 4, ..CN2350 }).nic_cores_used(0);
    // A core's busy time is charged when its work starts, so the four
    // executions still running at the end add up to 4 x 50us / 10ms.
    assert!(cores > 3.5 && cores <= 4.02, "cores={cores}");
}

#[test]
fn host_only_dpdk_uses_host_cores() {
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .mode(RuntimeMode::HostDpdk)
        .seed(9)
        .build();
    let a = c.register_actor(
        0,
        "echo",
        Box::new(Echo {
            cost: SimTime::from_us(10),
        }),
        Placement::Host,
    );
    c.run_closed_loop(a, 16, 512, SimTime::from_ms(5));
    assert!(c.completions().count() > 500);
    let cores = c.host_cores_used(0);
    assert!(cores > 0.1, "cores={cores}");
    // NIC did nothing.
    assert!(c.nic_cores_used(0) < 0.01);
}

struct PinnedEcho {
    cost: SimTime,
}
impl ActorLogic for PinnedEcho {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
        ctx.charge(self.cost);
        ctx.reply(req, 64, None);
    }
    fn host_pinned(&self) -> bool {
        true
    }
}

#[test]
fn host_ipipe_mode_routes_through_rings() {
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .mode(RuntimeMode::IPipe)
        .seed(9)
        .build();
    let a = c.register_actor(
        0,
        "echo",
        Box::new(PinnedEcho {
            cost: SimTime::from_us(10),
        }),
        Placement::Host,
    );
    c.run_closed_loop(a, 16, 512, SimTime::from_ms(5));
    assert!(c.completions().count() > 500);
    assert!(c.ring_messages(0) > 500, "requests must cross the ring");
    // The NIC burns cycles forwarding.
    assert!(c.nic_cores_used(0) > 0.01);
}

#[test]
fn fig17_shape_ipipe_host_only_costs_more_cpu_than_dpdk() {
    let run = |mode| {
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .mode(mode)
            .seed(11)
            .build();
        let a = c.register_actor(
            0,
            "kv",
            Box::new(Echo {
                cost: SimTime::from_us(4),
            }),
            Placement::Host,
        );
        c.run_closed_loop(a, 8, 512, SimTime::from_ms(4));
        let done = c.completions().count();
        let cores = c.host_cores_used(0);
        (done, cores)
    };
    let (done_dpdk, cores_dpdk) = run(RuntimeMode::HostDpdk);
    let (done_ipipe, cores_ipipe) = run(RuntimeMode::HostIPipe);
    // Normalize CPU by throughput: iPipe's runtime should cost ~5-25%
    // more per request (paper: 12.3%/10.8%).
    let per_req_dpdk = cores_dpdk / done_dpdk as f64;
    let per_req_ipipe = cores_ipipe / done_ipipe as f64;
    let overhead = per_req_ipipe / per_req_dpdk - 1.0;
    assert!(overhead > 0.0, "iPipe must cost more: {overhead}");
    assert!(overhead < 0.6, "but not absurdly more: {overhead}");
}

struct StatefulEcho {
    cost: SimTime,
    /// Private state to allocate at init (4MB gives phase 3 something to
    /// move).
    state: u64,
}
impl ActorLogic for StatefulEcho {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        // A DMO region exhausted by overload must degrade the actor
        // (smaller private state), not panic the runtime: halve the
        // request until it fits, down to a 4KB floor, and run stateless
        // below that.
        let mut want = self.state;
        while want >= 4096 {
            if ctx.dmo().malloc(want).is_ok() {
                return;
            }
            want /= 2;
        }
    }
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
        ctx.charge(self.cost);
        ctx.reply(req, 64, None);
    }
    fn state_hint_bytes(&self) -> u64 {
        self.state
    }
}

/// A [`StatefulEcho`] of `cost_us` with 4MB of state.
fn stateful_echo(cost_us: u64) -> Box<StatefulEcho> {
    Box::new(StatefulEcho {
        cost: SimTime::from_us(cost_us),
        state: 4 << 20,
    })
}

#[test]
fn forced_migration_moves_actor_and_reports_phases() {
    // Autonomous migration off so the forced push is the only move
    // (otherwise the idle pull path would bring the actor right back).
    let cfg = SchedConfig::for_nic(&CN2350).no_migration();
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .sched(cfg)
        .seed(7)
        .build();
    let a = c.register_actor(0, "stateful-echo", stateful_echo(3), Placement::Nic);
    c.run_closed_loop(a, 8, 512, SimTime::from_ms(2));
    assert!(c.force_migrate(a));
    c.run_for(SimTime::from_ms(15));
    assert_eq!(c.actor_location(a), Some(Loc::Host));
    let r = c.last_migration(0).unwrap();
    assert_eq!(r.actor, a.actor);
    assert!(r.total() > SimTime::ZERO);
    assert!(r.phase_times[2] > SimTime::ZERO, "phase 3 must take time");
    // Requests keep completing after migration (now served by the host).
    let before = c.completions().count();
    c.run_for(SimTime::from_ms(5));
    assert!(c.completions().count() > before);
}

struct Malicious;
impl ActorLogic for Malicious {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, _req: Request) {
        // Infinite loop: occupies the core far past the watchdog budget.
        ctx.charge(SimTime::from_secs(10));
    }
}

/// A node keeps one report, the last move's, while the registry counts
/// every move: a forced push, then ALG 1's pull back once the load drops.
#[test]
fn a_node_keeps_the_last_migrations_report_and_counts_every_move() {
    let (mut c, a) = echo_cluster(3);
    c.run_closed_loop(a, 8, 512, SimTime::from_ms(2));
    assert!(c.force_migrate(a));
    let mut moves = Vec::new();
    for side in [Loc::Host, Loc::Nic] {
        while c.actor_location(a) != Some(side) && c.now() < SimTime::from_ms(200) {
            c.run_for(SimTime::from_ms(1));
        }
        assert_eq!(c.actor_location(a), Some(side));
        moves.push(c.last_migration(0).unwrap().clone());
    }
    let [push, pull] = [&moves[0], &moves[1]];
    assert_eq!((push.actor, push.dir), (a.actor, MigrationDir::Push));
    assert_eq!((pull.actor, pull.dir), (a.actor, MigrationDir::Pull));
    assert_eq!(c.snapshot().counter("migrate.completed", 0), 2);
    let totals = c.obs().registry().hist_on("migrate.total", 0);
    assert_eq!(totals.count(), 2);
    let mut both = [push.total(), pull.total()];
    both.sort();
    assert_eq!(both, [totals.min(), totals.max()]);
    c.audit().assert_clean();
}

#[test]
fn watchdog_kills_runaway_actor_and_others_survive() {
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .seed(5)
        .build();
    let good = c.register_actor(
        0,
        "good",
        Box::new(Echo {
            cost: SimTime::from_us(2),
        }),
        Placement::Nic,
    );
    let bad = c.register_actor(0, "bad", Box::new(Malicious), Placement::Nic);
    // One poisoned request, then steady good traffic.
    c.set_client(
        0,
        Box::new(move |rng, token| ClientReq {
            dst: if token == 0 { bad } else { good },
            wire_size: 256,
            flow: rng.below(1 << 20),
            payload: None,
        }),
        4,
    );
    c.run_for(SimTime::from_ms(20));
    let kills = c.obs().registry().counter_on("rt.watchdog.kills", 0).get();
    assert_eq!(kills, 1, "exactly the bad actor is killed");
    assert!(
        c.completions().count() > 100,
        "good actor must keep serving"
    );
    assert_eq!(c.actor_location(bad), None, "bad actor deregistered");
}

/// Charges a fixed cost and never replies.
struct Spin(SimTime);
impl ActorLogic for Spin {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, _req: Request) {
        ctx.charge(self.0);
    }
}

#[test]
fn watchdog_spares_the_budget_and_kills_one_ns_past_it() {
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .seed(5)
        .build();
    // With no emits and no DMO traffic an execution is priced at the
    // dispatch overhead plus its charge (which outweighs the forward cost).
    let dispatch = c.node(0).sched.dispatch_overhead();
    let budget = crate::isolate::WATCHDOG_BUDGET - dispatch;
    let at = c.register_actor(0, "at", Box::new(Spin(budget)), Placement::Nic);
    let over = SimTime::from_ns(1) + budget;
    let over = c.register_actor(0, "over", Box::new(Spin(over)), Placement::Nic);
    c.set_client(
        0,
        Box::new(move |_, token| ClientReq {
            dst: if token == 0 { at } else { over },
            wire_size: 256,
            flow: token,
            payload: None,
        }),
        2,
    );
    c.run_for(SimTime::from_ms(20));
    let reg = c.obs().registry();
    assert_eq!(reg.counter_on("rt.exec.nic", 0).get(), 1, "`at` ran");
    assert_eq!(reg.counter_on("rt.watchdog.kills", 0).get(), 1);
    // The survivor may since have been pushed to the host; it still exists.
    assert!(c.actor_location(at).is_some(), "at the budget survives");
    assert_eq!(c.actor_location(over), None, "1 ns over is killed");
}

/// Passes each request on to `next`, carrying the client's address.
struct Relay {
    next: Address,
}
impl ActorLogic for Relay {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        ctx.charge(SimTime::from_us(1));
        let client = req.reply_to.take();
        ctx.send(
            self.next,
            req.flow,
            req.wire_size,
            req.token,
            Some(Box::new(client)),
        );
    }
}

/// Answers a relayed request to the client it carries, at a cost.
struct Sink(SimTime);
impl ActorLogic for Sink {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        ctx.charge(self.0);
        let client = *req.payload_as::<Option<Address>>();
        if let Some(dst) = client {
            ctx.reply_to(dst, 64, req.token, None);
        }
    }
}

#[test]
fn multi_node_actor_messaging() {
    let mut c = Cluster::builder(CN2350)
        .servers(2)
        .clients(1)
        .seed(3)
        .build();
    let sink = Box::new(Sink(SimTime::from_us(1)));
    let sink = c.register_actor(1, "sink", sink, Placement::Nic);
    let relay = c.register_actor(0, "relay", Box::new(Relay { next: sink }), Placement::Nic);
    c.run_closed_loop(relay, 8, 512, SimTime::from_ms(5));
    let done = c.completions().count();
    assert!(done > 500, "relayed completions: {done}");
}

#[test]
fn determinism_same_seed_same_result() {
    let run = || {
        let (mut c, a) = echo_cluster(2);
        c.run_closed_loop(a, 8, 512, SimTime::from_ms(3));
        (c.completions().count(), c.completions().mean())
    };
    assert_eq!(run(), run());
}

fn echo_gen(a: Address) -> ClientGenFn {
    Box::new(move |rng, _| ClientReq {
        dst: a,
        wire_size: 512,
        flow: rng.below(1 << 30),
        payload: None,
    })
}

fn echo_client(c: &mut Cluster, a: Address, outstanding: u32) {
    c.set_client(0, echo_gen(a), outstanding);
}

#[test]
fn lossy_link_wedges_a_retryless_closed_loop() {
    // Without retransmission every lost request permanently occupies a
    // closed-loop slot: 8 slots, 100% loss, zero completions — the
    // pre-fault behaviour the retry layer exists to fix.
    let (mut c, a) = echo_cluster(2);
    c.set_fault_plan(FaultPlan::new(3).with_loss(1.0));
    echo_client(&mut c, a, 8);
    c.run_for(SimTime::from_ms(5));
    assert_eq!(c.completions().count(), 0);
    assert_eq!(c.completions().issued(), 8);
}

#[test]
fn retransmission_recovers_lost_requests() {
    let (mut c, a) = echo_cluster(2);
    c.set_fault_plan(FaultPlan::new(3).with_loss(0.1));
    echo_client(&mut c, a, 8);
    c.set_client_retry(0, lan_retry(), None);
    c.run_for(SimTime::from_ms(20));
    let done = c.completions().count();
    assert!(done > 1_000, "done={done}");
    let retries = c.obs().registry().counter("client.retry.sent").get();
    assert!(retries > 0, "10% loss must trigger retransmissions");
    // The loop never wedges: every issued request completes or is
    // still within its retry budget.
    assert!(c.completions().issued() - done < 8 + 1);
}

/// At two shards too: the client's shard counts its abandons in the
/// cluster's one registry, and the audit's conservation ledger reads that
/// counter once.
#[test]
fn retry_gives_up_after_max_tries_and_frees_the_slot() {
    for shards in [1, 2] {
        let (mut c, a) = sharded_echo_cluster(2, shards);
        c.set_fault_plan(FaultPlan::new(5).with_loss(1.0));
        echo_client(&mut c, a, 2);
        c.set_client_retry(
            0,
            RetryPolicy {
                timeout: SimTime::from_us(100),
                cap: SimTime::from_us(400),
                max_tries: 3,
            },
            None,
        );
        c.run_for(SimTime::from_ms(10));
        assert_eq!(c.completions().count(), 0);
        let abandoned = c.obs().registry().counter("client.retry.abandoned").get();
        assert!(abandoned > 2, "abandoned={abandoned}");
        // Abandonment re-issues: far more than the initial 2 slots went out.
        assert!(c.completions().issued() > 10);
        c.audit().assert_clean();
    }
}

#[test]
fn corrupted_frames_are_rejected_by_the_shim_stack() {
    let (mut c, a) = echo_cluster(2);
    c.set_fault_plan(FaultPlan::new(7).with_corruption(1.0));
    echo_client(&mut c, a, 4);
    c.run_for(SimTime::from_ms(2));
    assert_eq!(c.completions().count(), 0, "every frame was damaged");
    let rejected = c.obs().registry().counter("fault.rx.rejected").get();
    assert_eq!(rejected, 4, "each issued frame rejected exactly once");
}

#[test]
fn node_crash_heals_after_restart_with_retry() {
    let (mut c, a) = echo_cluster(2);
    // Server (node 0) is dark for [1ms, 3ms).
    c.set_fault_plan(FaultPlan::new(11).with_crash(0, SimTime::from_ms(1), SimTime::from_ms(3)));
    echo_client(&mut c, a, 8);
    c.set_client_retry(0, lan_retry(), None);
    c.run_for(SimTime::from_ms(1));
    let before_crash = c.completions().count();
    assert!(before_crash > 100);
    c.run_for(SimTime::from_ms(2));
    c.reset_measurements();
    c.run_for(SimTime::from_ms(3));
    let after_restart = c.completions().count();
    assert!(after_restart > 100, "traffic resumes: {after_restart}");
}

#[test]
fn migration_aborts_on_crash_and_retries_after_restart() {
    let cfg = SchedConfig::for_nic(&CN2350).no_migration();
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .sched(cfg)
        .seed(13)
        .build();
    let a = c.register_actor(0, "stateful-echo", stateful_echo(3), Placement::Nic);
    c.run_closed_loop(a, 4, 512, SimTime::from_ms(2));
    // Crash the node right as migration starts; window covers phase 1.
    c.set_fault_plan(FaultPlan::new(17).with_crash(0, SimTime::from_ms(2), SimTime::from_ms(8)));
    assert!(c.force_migrate(a));
    c.run_for(SimTime::from_ms(20));
    let aborted = c.obs().registry().counter("migrate.aborted").get();
    assert_eq!(aborted, 1, "first attempt aborted");
    // The retry after restart completed the move.
    assert_eq!(c.actor_location(a), Some(Loc::Host));
    assert_eq!(c.snapshot().counter("migrate.completed", 0), 1);
    c.audit().assert_clean();
}

struct Ticker {
    ticks: std::rc::Rc<std::cell::Cell<u32>>,
    period: SimTime,
}
impl ActorLogic for Ticker {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        let me = Address {
            node: ctx.node(),
            actor: ctx.actor_id(),
        };
        ctx.send_after(self.period, me, 0, 64, 0, None);
    }
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, _req: Request) {
        self.ticks.set(self.ticks.get() + 1);
        let me = Address {
            node: ctx.node(),
            actor: ctx.actor_id(),
        };
        ctx.send_after(self.period, me, 0, 64, 0, None);
    }
}

#[test]
fn send_after_drives_a_periodic_tick_from_init() {
    let ticks = std::rc::Rc::new(std::cell::Cell::new(0u32));
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .seed(1)
        .build();
    c.register_actor(
        0,
        "ticker",
        Box::new(Ticker {
            ticks: ticks.clone(),
            period: SimTime::from_us(100),
        }),
        Placement::Nic,
    );
    c.run_for(SimTime::from_us(1050));
    let n = ticks.get();
    assert!((9..=11).contains(&n), "ticks={n}");
}

/// Five tickers over two nodes, through whatever `deploy` does with the
/// node list; returns the cluster and each ticker's counter.
fn ticker_cluster(
    deploy: impl FnOnce(&mut Cluster, &[usize], &mut dyn FnMut(usize) -> Box<dyn ActorLogic>),
) -> (Cluster, Vec<std::rc::Rc<std::cell::Cell<u32>>>) {
    let mut c = Cluster::builder(CN2350)
        .servers(2)
        .clients(1)
        .seed(9)
        .build();
    let nodes = [0, 1, 0, 1, 0];
    let ticks: Vec<_> = nodes.iter().map(|_| Default::default()).collect();
    let mut logic = |i: usize| -> Box<dyn ActorLogic> {
        Box::new(Ticker {
            ticks: std::rc::Rc::clone(&ticks[i]),
            period: SimTime::from_us(50 + 10 * i as u64),
        })
    };
    deploy(&mut c, &nodes, &mut logic);
    (c, ticks)
}

#[test]
fn reserved_registration_matches_register_actor() {
    let run = |mut c: Cluster, ticks: Vec<std::rc::Rc<std::cell::Cell<u32>>>| {
        c.run_for(SimTime::from_ms(1));
        c.audit().assert_clean();
        let ticks: Vec<u32> = ticks.iter().map(|t| t.get()).collect();
        (ticks, c.export_canonical_jsonl())
    };
    let mut want = Vec::new();
    let (c, ticks) = ticker_cluster(|c, nodes, logic| {
        for (i, &node) in nodes.iter().enumerate() {
            want.push(c.register_actor(node, "ticker", logic(i), Placement::Nic));
        }
    });
    let (want_ticks, want_export) = run(c, ticks);
    assert!(want_ticks.iter().all(|&n| n >= 9), "{want_ticks:?}");

    // Every address first, then the actors in the same order: the ids, the
    // `init` timers and every exported byte are those of `register_actor`.
    let (c, ticks) = ticker_cluster(|c, nodes, logic| {
        let addrs: Vec<Address> = nodes.iter().map(|&n| c.reserve_actor(n)).collect();
        assert_eq!(addrs, want);
        for (i, &addr) in addrs.iter().enumerate() {
            c.register_reserved(addr, "ticker", logic(i), Placement::Nic);
        }
    });
    assert_eq!(run(c, ticks), (want_ticks.clone(), want_export));

    // Any interleaving of reserving and registering: ids follow the order
    // of the reservations alone, and every `init` timer still fires.
    for seed in 0..16 {
        let mut rng = DetRng::new(seed);
        let (c, ticks) = ticker_cluster(|c, nodes, logic| {
            let mut pending: Vec<(usize, Address)> = Vec::new();
            let mut next = 0;
            while next < nodes.len() || !pending.is_empty() {
                if next < nodes.len() && (pending.is_empty() || rng.chance(0.5)) {
                    let addr = c.reserve_actor(nodes[next]);
                    assert_eq!(addr, want[next], "seed {seed}");
                    pending.push((next, addr));
                    next += 1;
                } else {
                    let (i, addr) = pending.swap_remove(rng.index(pending.len()));
                    c.register_reserved(addr, "ticker", logic(i), Placement::Nic);
                    assert_eq!(c.actor_name(addr), Some("ticker"));
                }
            }
        });
        assert_eq!(run(c, ticks).0, want_ticks, "seed {seed}");
    }
}

#[test]
#[should_panic(
    expected = "Address { node: 0, actor: 1 } is not reserved, or is registered already"
)]
fn registering_an_address_twice_panics() {
    let (mut c, a) = echo_cluster(1);
    let again = Box::new(Echo {
        cost: SimTime::from_us(1),
    });
    c.register_reserved(a, "echo", again, Placement::Nic);
}

#[test]
#[should_panic(
    expected = "Address { node: 1, actor: 1 } was reserved as Address { node: 0, actor: 1 }"
)]
fn registering_on_another_node_than_reserved_panics() {
    let mut c = Cluster::builder(CN2350).servers(2).build();
    let reserved = c.reserve_actor(0);
    let elsewhere = Address {
        node: 1,
        ..reserved
    };
    let echo = Box::new(Echo {
        cost: SimTime::from_us(1),
    });
    c.register_reserved(elsewhere, "echo", echo, Placement::Nic);
}

#[test]
#[should_panic(expected = "reserved but never registered: [Address { node: 0, actor: 2 }]")]
fn running_with_an_unregistered_reservation_panics() {
    let (mut c, _) = echo_cluster(1);
    c.reserve_actor(0);
    c.run_for(SimTime::from_us(1));
}

#[test]
fn audit_flags_an_unregistered_reservation() {
    let (mut c, _) = echo_cluster(1);
    assert!(c.audit().is_clean());
    c.reserve_actor(0);
    let report = c.audit();
    let [v] = report.violations() else {
        panic!("one violation expected: {}", report.render());
    };
    assert_eq!((v.invariant, v.node), ("actor.reserved", 0));
    assert!(
        v.detail.contains("Address { node: 0, actor: 2 }"),
        "{}",
        v.detail
    );
}

struct Bouncer {
    to: Address,
}
impl ActorLogic for Bouncer {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
        ctx.charge(SimTime::from_us(1));
        let to = self.to;
        ctx.reply(req, 64, Some(Box::new(Redirect(to))));
    }
}

#[test]
fn redirect_reply_bounces_the_request_to_the_new_address() {
    let mut c = Cluster::builder(CN2350)
        .servers(2)
        .clients(1)
        .seed(21)
        .build();
    let echo = c.register_actor(
        1,
        "echo",
        Box::new(Echo {
            cost: SimTime::from_us(2),
        }),
        Placement::Nic,
    );
    let bouncer = c.register_actor(0, "bouncer", Box::new(Bouncer { to: echo }), Placement::Nic);
    echo_client(&mut c, bouncer, 4);
    c.set_client_retry(0, lan_retry(), None);
    c.run_for(SimTime::from_ms(5));
    let done = c.completions().count();
    assert!(done > 500, "done={done}");
    let redirects = c.obs().registry().counter("client.redirects").get();
    assert_eq!(
        redirects,
        c.completions().issued(),
        "every request bounced once"
    );
}

#[test]
fn open_loop_generator_paces_arrivals_independent_of_completions() {
    // Open-loop pacing: arrivals are a seeded Poisson process that
    // ignores completions entirely (outstanding is 0 — a closed loop
    // would never issue), stops at `until`, and drains its tail through
    // the normal completion path so conservation closes at quiesce.
    let run = |seed: u64| {
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .seed(seed)
            .build();
        let a = c.register_actor(
            0,
            "echo",
            Box::new(Echo {
                cost: SimTime::from_us(2),
            }),
            Placement::Nic,
        );
        c.set_client_open_loop(
            0,
            Box::new(move |rng, _| ClientReq {
                dst: a,
                wire_size: 256,
                flow: rng.below(1 << 20),
                payload: None,
            }),
            OpenLoopCfg {
                rate_rps: 100_000.0,
                until: SimTime::from_ms(10),
            },
        );
        c.run_for(SimTime::from_ms(12));
        c.audit().assert_clean();
        (c.completions().issued(), c.completions().count())
    };
    let (issued, done) = run(11);
    // ~1000 expected arrivals in 10ms at 100k rps; allow wide Poisson
    // noise but reject a closed-loop-shaped count.
    assert!((800..1200).contains(&issued), "issued={issued}");
    // Arrivals stopped at `until`, so the whole stream drained.
    assert_eq!(issued, done);
    // Same seed, same stream; a different seed draws different gaps.
    assert_eq!(run(11), (issued, done));
    assert_ne!(run(12).0, issued);
}

/// The departed address answers its first request with a `Redirect`
/// toward the new home and swallows everything else — a leader whose
/// range just moved.
struct MovedOut {
    to: Address,
    redirected: bool,
}
impl ActorLogic for MovedOut {
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
        ctx.charge(SimTime::from_us(1));
        if !self.redirected {
            self.redirected = true;
            let to = self.to;
            ctx.reply(req, 64, Some(Box::new(Redirect(to))));
        }
    }
}

#[test]
fn redirect_refreshes_every_queued_request_for_the_moved_address() {
    // Regression: a Redirect used to steer only the one request it
    // answered. Every other queued request aimed at the departed
    // address kept retrying it until its budget ran out — a retry storm
    // after each rebalance. One Redirect must retarget every queued
    // retry slot still aimed at the old address and let the
    // application's routing table refresh for future issues.
    use std::cell::RefCell;
    use std::rc::Rc;
    let mut c = Cluster::builder(CN2350)
        .servers(2)
        .clients(1)
        .seed(33)
        .build();
    let new_home = c.register_actor(
        1,
        "echo",
        Box::new(Echo {
            cost: SimTime::from_us(2),
        }),
        Placement::Nic,
    );
    let old_home = c.register_actor(
        0,
        "moved-out",
        Box::new(MovedOut {
            to: new_home,
            redirected: false,
        }),
        Placement::Nic,
    );
    let route = Rc::new(RefCell::new(old_home));
    let gen_route = route.clone();
    c.set_client(
        0,
        Box::new(move |rng, _| ClientReq {
            dst: *gen_route.borrow(),
            wire_size: 256,
            flow: rng.below(1 << 20),
            payload: None,
        }),
        8,
    );
    // Tight budget: without the refresh, the seven swallowed requests
    // burn all six tries against the old address and are abandoned.
    c.set_client_retry(
        0,
        RetryPolicy {
            timeout: SimTime::from_us(100),
            cap: SimTime::from_ms(1),
            max_tries: 6,
        },
        None,
    );
    let cb_route = route.clone();
    c.set_client_route_refresh(
        0,
        Box::new(move |old, new| {
            let mut r = cb_route.borrow_mut();
            if *r == old {
                *r = new;
            }
        }),
    );
    c.run_for(SimTime::from_ms(20));
    c.audit().assert_clean();
    let r = c.obs().registry();
    assert_eq!(
        r.counter("client.retry.abandoned").get(),
        0,
        "no request may die retrying the departed address"
    );
    assert_eq!(
        r.counter("client.redirects").get(),
        1,
        "only the first request bounces"
    );
    assert_eq!(
        r.counter("client.route.refreshed").get(),
        7,
        "the other seven queued slots are retargeted in place"
    );
    assert!(c.completions().count() > 1_000);
}

#[test]
fn audit_stays_clean_across_forced_migration() {
    // Regression: requests parked during a push migration used to be
    // forwarded to the host at phase 4 without incrementing the ring
    // occupancy (the handler then decremented it, stopping at zero,
    // silently masking the drift), and the phase-2 mailbox drain
    // bypassed the scheduler's buffered counter. Both leaks are caught
    // by `ring.depth` / `sched.arrivals` when auditing around a live
    // migration.
    let cfg = SchedConfig::for_nic(&CN2350).no_migration();
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .sched(cfg)
        .seed(7)
        .build();
    // A host-placed ticker: its self-sends are local emits to a host actor,
    // the third caller of `push_to_host_ring` beside the NIC forward and the
    // phase-4 forward below. The short period keeps a crossing pending at
    // every audit instant, where a missed increment cannot hide.
    let ticks = std::rc::Rc::new(std::cell::Cell::new(0u32));
    let ticker = Box::new(Ticker {
        ticks: ticks.clone(),
        period: SimTime::from_us(1),
    });
    c.register_actor(0, "ticker", ticker, Placement::Host);
    let a = c.register_actor(0, "stateful-echo", stateful_echo(3), Placement::Nic);
    echo_client(&mut c, a, 16);
    c.run_for(SimTime::from_ms(1));
    c.audit().assert_clean();
    assert!(c.force_migrate(a));
    // Audited every step until the move lands, so inside each phase (each
    // one outlasts a step, checked below): phase legality, step tokens,
    // parked requests, the empty mailbox from phase 2 on and the buffered
    // ledger are all checked on live state.
    let step = SimTime::from_us(100);
    while c.actor_location(a) == Some(Loc::Migrating) {
        c.run_for(step);
        c.audit().assert_clean();
    }
    let report = c.last_migration(0).unwrap().clone();
    assert!(report.phase_times.iter().all(|&t| t > step), "{report:?}");
    c.run_for(SimTime::from_ms(30));
    assert_eq!(c.actor_location(a), Some(Loc::Host));
    assert!(c.completions().count() > 0);
    c.audit().assert_clean();
    // All three ring-crossing callers ran.
    assert!(ticks.get() > 0, "local emits to a host actor");
    assert!(report.requests_forwarded > 0, "phase 4");
    let reg = c.obs().registry();
    assert!(reg.counter_on("rt.forward.nic", 0).get() > 0, "NIC forward");
}

/// Pinned regression: Fig 18 reported time the simulation never spent.
/// Phase 2 was always recorded as `PHASE2_BASE` (the mailbox drain that was
/// actually waited was dropped) and phase 4 was recomputed at finish from a
/// buffer that kept growing during phase 4, so `total()` ran past the real
/// finish. Phases now record elapsed simulated time.
#[test]
fn migration_report_covers_exactly_the_time_the_migration_took() {
    // A DRR actor pushed with a backlog in its mailbox, under open-loop
    // load that keeps arriving through phase 4.
    let migrating = || {
        let cfg = SchedConfig::for_nic(&CN2350)
            .with_discipline(crate::sched::Discipline::DrrOnly)
            .no_migration();
        let mut c = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .sched(cfg)
            .seed(7)
            .build();
        let a = c.register_actor(0, "stateful-echo", stateful_echo(10), Placement::Nic);
        let open = OpenLoopCfg {
            rate_rps: 1e6,
            until: SimTime::from_secs(1),
        };
        c.set_client_open_loop(0, echo_gen(a), open);
        c.run_for(SimTime::from_ms(1));
        assert!(c.force_migrate(a));
        c
    };
    // Audited as it goes: the DRR backlog parked in phase 2 gives
    // `migrate.mailbox` and `sched.arrivals` something to check.
    let mut c = migrating();
    for _ in 0..300 {
        c.run_for(SimTime::from_us(100));
        c.audit().assert_clean();
    }
    let report = c.last_migration(0).unwrap().clone();
    assert!(report.phase_times[1] > crate::migrate::PHASE2_BASE);
    assert!(report.requests_forwarded > 1_000);
    // Same seed again: the migration finishes exactly `total()` after it
    // started — not a nanosecond earlier or later.
    let mut c = migrating();
    c.run_for(report.total().saturating_sub(SimTime::from_ns(1)));
    assert!(c.last_migration(0).is_none(), "total() overshoots");
    c.run_for(SimTime::from_ns(1));
    let completed = c.snapshot().counter("migrate.completed", 0);
    assert_eq!(completed, 1, "total() falls short");
}

/// Every migration the scheduler begins is carried out, so its push and
/// pull counters count moves, not marks. Here the mean threshold is so low
/// that every completion on the management core would push: the runtime
/// used to refuse the marks that fell inside the cooldown, after a relay's
/// local send to the marked sink had been parked.
#[test]
fn every_migration_the_scheduler_begins_is_carried_out() {
    let cfg = SchedConfig {
        mean_thresh: SimTime::from_ns(1),
        ..SchedConfig::for_nic(&CN2350)
    };
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .sched(cfg)
        .seed(7)
        .build();
    let heavy = Box::new(Echo {
        cost: SimTime::from_us(20),
    });
    let heavy = c.register_actor(0, "heavy", heavy, Placement::Nic);
    let sink = Box::new(Sink(SimTime::from_us(4)));
    let sink = c.register_actor(0, "sink", sink, Placement::Nic);
    let relay = c.register_actor(0, "relay", Box::new(Relay { next: sink }), Placement::Nic);
    c.set_client(
        0,
        Box::new(move |rng, token| ClientReq {
            dst: if token % 2 == 0 { heavy } else { relay },
            wire_size: 256,
            flow: rng.below(1 << 20),
            payload: None,
        }),
        8,
    );
    c.run_for(SimTime::from_ms(10));
    for a in [heavy, sink, relay] {
        assert_eq!(c.actor_location(a), Some(Loc::Host));
    }
    c.audit().assert_clean();
    // Nothing is in flight, so every migration begun has ended.
    let count = |name| c.obs().registry().counter(name).get();
    let begun = count("sched.migrate.push") + count("sched.migrate.pull");
    let ended = count("migrate.completed.push")
        + count("migrate.completed.pull")
        + count("migrate.aborted");
    assert_eq!(begun, ended);
    assert!(begun >= 3, "{begun} migrations");
    let before = c.completions().count();
    c.run_for(SimTime::from_ms(1));
    assert!(c.completions().count() > before);
}

#[test]
fn audit_stays_clean_after_watchdog_kill_with_queued_work() {
    // Regression: a watchdog kill with work still queued used to leak
    // from three ledgers at once — `deregister` discarded shared-queue
    // requests without counting them, and the NIC/host dispatch paths
    // silently dropped already-popped requests whose actor had died.
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .seed(5)
        .build();
    let bad = c.register_actor(0, "bad", Box::new(Malicious), Placement::Nic);
    echo_client(&mut c, bad, 8);
    c.run_for(SimTime::from_ms(20));
    let kills = c.obs().registry().counter_on("rt.watchdog.kills", 0).get();
    assert_eq!(kills, 1);
    assert_eq!(c.actor_location(bad), None, "bad actor deregistered");
    c.audit().assert_clean();
    // The kill left queued requests behind; they must appear in a drop
    // counter rather than vanish.
    let r = c.obs().registry();
    let dropped =
        r.counter_on("sched.dropped", 0).get() + r.counter_on("rt.drop.no_actor", 0).get();
    assert!(dropped > 0, "killed actor's queued work must be counted");
}

#[test]
fn audit_detects_injected_client_leak() {
    // The leak hook bypasses every ledger on purpose: the audit must
    // notice, or it could not be trusted to catch a real leak.
    let (mut c, a) = echo_cluster(2);
    echo_client(&mut c, a, 8);
    c.run_for(SimTime::from_us(30));
    assert!(c.debug_drop_inflight(0), "a request must be in flight");
    let report = c.audit();
    assert!(
        report
            .violations()
            .iter()
            .any(|v| v.invariant == "client.conservation"),
        "expected a client.conservation violation, got: {}",
        report.render()
    );
}

/// A deadline the timer has lost: an armed request due before the instant
/// the timer is armed for.
#[test]
fn audit_detects_a_lost_retry_deadline() {
    let (mut c, a) = echo_cluster(2);
    echo_client(&mut c, a, 8);
    c.set_client_retry(0, lan_retry(), None);
    c.run_for(SimTime::from_us(30));
    c.audit().assert_clean();
    assert!(c.debug_hasten_retry_due(0), "a request must be armed");
    let report = c.audit();
    let flagged: Vec<&str> = report.violations().iter().map(|v| v.invariant).collect();
    assert_eq!(flagged, ["client.retry.timer"], "{}", report.render());
}

#[test]
fn retry_timer_reuses_a_superseded_event() {
    let us = SimTime::from_us;
    let mut d = RetryTimer::default();
    assert!(d.arm(us(100)), "the first deadline schedules a RetryDue");
    assert!(!d.arm(us(150)), "a later one waits for the armed timer");
    assert!(d.arm(us(50)), "an earlier one schedules and parks 100");
    assert!(d.fire(us(50)));
    assert!(!d.arm(us(100)), "re-arming at a parked instant reuses it");
    assert!(d.fire(us(100)));
    assert!(d.arm(us(300)));
    assert!(d.arm(us(200)));
    assert!(d.fire(us(200)));
    assert!(!d.fire(us(300)), "a parked RetryDue fires and is ignored");
    assert!(d.armed.is_none() && d.parked.is_empty());
}

/// Operation sequences for the retry differential: `(op, a, b)`.
fn deadline_ops() -> impl Strategy<Value = Vec<(u8, u64, usize)>> {
    prop::collection::vec((0u8..4, 0u64..64, 0usize..1024), 1..200)
}

/// The differential's retry policy, in nanoseconds so a few hundred
/// operations reach every verdict: a request is abandoned at its third
/// deadline.
const DIFF_POLICY: RetryPolicy = RetryPolicy {
    timeout: SimTime::from_ns(100),
    cap: SimTime::from_ns(400),
    max_tries: 3,
};

/// A client with a retry policy and nothing else: the differential tracks
/// requests through it directly.
fn retry_only_client() -> ClientState {
    ClientState {
        gen: Box::new(|_, _| unreachable!("the differential never generates")),
        outstanding: 0,
        next_token: 0,
        inflight: IdMap::default(),
        rng: DetRng::new(0),
        retry: Some(ClientRetry {
            policy: DIFF_POLICY,
            payload_fn: None,
            timer: RetryTimer::default(),
        }),
        open: None,
        route_refresh: None,
        shed_src_until: SimTime::ZERO,
    }
}

/// The client's retry ledger against a `BTreeSet<(SimTime, u64)>` of the
/// deadlines of armed requests in flight, with a per-token model of tries
/// and backoff beside it. The real [`ClientState`] goes through what the
/// runtime does to it: first transmissions (`track`), requests that end,
/// and the timer, whose pending `RetryDue` instants the
/// driver keeps as the event queue would. When time advances past a pending
/// instant, that `RetryDue` fires; a live one judges `due_by(now)`, and the
/// tokens judged and their order must be the reference's entries due by
/// `now`. Each verdict must be the model's, and the instant the timer
/// re-arms for must be the reference's first deadline. After every step the
/// ledger must equal the reference, and `client.retry.timer` must hold over
/// the pending `RetryDue` instants.
fn deadlines_match_reference(ops: Vec<(u8, u64, usize)>) -> Result<(), TestCaseError> {
    let ns = SimTime::from_ns;
    let creq = ClientReq {
        dst: Address { node: 0, actor: 0 },
        wire_size: 0,
        flow: 0,
        payload: None,
    };
    let mut client = retry_only_client();
    let mut reference: BTreeSet<(SimTime, u64)> = BTreeSet::new();
    // Per token in flight: (tries, backoff).
    let mut model: BTreeMap<u64, (u32, SimTime)> = BTreeMap::new();
    let mut pending: BTreeSet<SimTime> = BTreeSet::new();
    let (mut now, mut next_token) = (SimTime::ZERO, 0u64);
    for (op, a, b) in ops {
        let nth_live = |model: &BTreeMap<u64, _>| model.keys().nth(b % model.len().max(1)).copied();
        match op {
            // First transmission of a fresh token; equal deadlines when
            // several go out at one instant.
            0 | 1 => {
                let token = next_token;
                next_token += 1;
                if let Some(at) = client.track(now, token, &creq) {
                    prop_assert!(pending.insert(at), "a second RetryDue at {}", at);
                }
                reference.insert((now + DIFF_POLICY.timeout, token));
                model.insert(token, (1, DIFF_POLICY.timeout));
            }
            // The request ends: completed, or shed.
            2 => {
                if let Some(token) = nth_live(&model) {
                    prop_assert!(client.inflight.remove(&token).is_some());
                    model.remove(&token);
                    reference.retain(|&(_, t)| t != token);
                }
            }
            // Time advances, firing every RetryDue on the way.
            _ => {
                let until = now + ns(a * b as u64 / 16);
                while let Some(at) = pending.first().copied().filter(|&at| at <= until) {
                    pending.remove(&at);
                    now = at;
                    let retry = client.retry.as_mut().expect("a retry policy");
                    if !retry.timer.fire(now) {
                        continue;
                    }
                    let mut due = Vec::new();
                    client.due_by(now, &mut due);
                    let want: Vec<(SimTime, u64)> = reference
                        .iter()
                        .take_while(|&&(at, _)| at <= now)
                        .copied()
                        .collect();
                    prop_assert_eq!(&due, &want);
                    for (at, token) in want {
                        reference.remove(&(at, token));
                        let (tries, backoff) = model.get_mut(&token).expect("modelled");
                        match client.judge(now, token) {
                            Verdict::Abandoned => {
                                prop_assert!(*tries >= DIFF_POLICY.max_tries);
                                model.remove(&token);
                            }
                            Verdict::Resent(_) => {
                                prop_assert!(*tries < DIFF_POLICY.max_tries);
                                *tries += 1;
                                *backoff = (*backoff * 2).min(DIFF_POLICY.cap);
                                reference.insert((now + *backoff, token));
                            }
                        }
                    }
                    if let Some(at) = client.rearm() {
                        prop_assert!(pending.insert(at), "a second RetryDue at {}", at);
                    }
                    let timer = &client.retry.as_ref().expect("a retry policy").timer;
                    prop_assert_eq!(timer.armed, reference.first().map(|&(at, _)| at));
                }
                now = until;
            }
        }
        let armed = client.inflight.iter().filter(|(_, out)| out.armed());
        let ledger: BTreeSet<(SimTime, u64)> = armed.map(|(&t, out)| (out.due, t)).collect();
        prop_assert_eq!(&ledger, &reference);
        let mut r = AuditReport::new(now);
        client.audit_retry_timer(&mut r, 0, &Vec::from_iter(pending.iter().copied()));
        prop_assert!(r.is_clean(), "{}", r.render());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// [`deadlines_match_reference`] at tier-1 depth.
    #[test]
    fn retry_deadlines_match_btreeset_reference(ops in deadline_ops()) {
        deadlines_match_reference(ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    /// The same differential at 4,000 cases, in release mode:
    /// `scripts/check.sh queue-deep`.
    #[test]
    #[ignore = "deep run: cargo test --release -p ipipe --lib retry_deadlines -- --ignored"]
    fn retry_deadlines_match_btreeset_reference_deep(ops in deadline_ops()) {
        deadlines_match_reference(ops)?;
    }
}

#[test]
fn mid_run_audit_does_not_perturb_the_simulation() {
    // The audit drains and re-schedules the pending event queue; the
    // run must be byte-identical with or without it.
    let run = |audit: bool| {
        let (mut c, a) = echo_cluster(2);
        echo_client(&mut c, a, 8);
        c.run_for(SimTime::from_ms(1));
        if audit {
            c.audit().assert_clean();
        }
        c.run_for(SimTime::from_ms(4));
        (
            c.completions().count(),
            c.completions().mean(),
            c.completions().p99(),
            c.obs().registry().counter("net.packets").get(),
        )
    };
    assert_eq!(run(false), run(true));
}

// ------------------------------------------------------------------
// Sharded engine
// ------------------------------------------------------------------

/// A cluster with cross-shard traffic in every direction: six echo
/// servers, two clients spraying requests over all of them.
fn sharded_cluster(shards: usize) -> Cluster {
    let mut c = Cluster::builder(CN2350)
        .servers(6)
        .clients(2)
        .seed(42)
        .shards(shards)
        .obs(Obs::new(ipipe_sim::ObsConfig {
            level: TraceLevel::Spans,
            trace_capacity: 1 << 16,
        }))
        .build();
    let actors: Vec<Address> = (0..6)
        .map(|n| {
            c.register_actor(
                n,
                "echo",
                Box::new(Echo {
                    cost: SimTime::from_us(3),
                }),
                Placement::Nic,
            )
        })
        .collect();
    for cl in 0..2 {
        let targets = actors.clone();
        c.set_client(
            cl,
            Box::new(move |rng, _| ClientReq {
                dst: targets[rng.index(targets.len())],
                wire_size: 256,
                flow: rng.below(1 << 20),
                payload: None,
            }),
            8,
        );
    }
    c
}

#[test]
fn sharded_runs_byte_match_the_serial_canonical_export() {
    let run = |shards: usize| {
        let mut c = sharded_cluster(shards);
        c.run_for(SimTime::from_ms(2));
        c.audit().assert_clean();
        c.run_for(SimTime::from_ms(1));
        (c.completions().count(), c.export_canonical_jsonl())
    };
    let (done1, serial) = run(1);
    assert!(done1 > 500, "done={done1}");
    for shards in [2, 3, 4, 8] {
        let (done, export) = run(shards);
        assert_eq!(done, done1, "{shards} shards diverged on completions");
        assert_eq!(
            export, serial,
            "{shards}-shard canonical export must be byte-identical to serial"
        );
    }
}

#[test]
fn sharded_epochs_report_work_and_span() {
    let mut c = sharded_cluster(4);
    c.run_for(SimTime::from_ms(2));
    let stats = c.epoch_stats();
    assert!(stats.epochs > 0, "epoch driver must have run");
    assert!(stats.events >= stats.critical_path);
    assert!(stats.speedup() >= 1.0);
    assert!(
        c.lookahead().is_some(),
        "multi-shard clusters have lookahead"
    );
    assert_eq!(c.shard_events().len(), 4);
}

/// Frames go straight into their destination shard's pool, so only the
/// lookahead bound keeps a slice from serving a cross-shard frame early:
/// a lookahead ten times the real minimum cross-shard latency must trip
/// `send_frame`'s check on the first such frame.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "before the epoch's horizon")]
fn an_overstated_lookahead_trips_the_cross_shard_check() {
    let mut c = sharded_cluster(2);
    c.lookahead = c.lookahead.map(|l| l * 10);
    c.run_for(SimTime::from_ms(1));
}

/// Pinned regression for the shard-aware audit sweep: the audit tallies
/// each shard's queue in place, so a mid-run audit must be invisible for
/// any shard count — including events whose cross-shard replies sit in
/// merge pools.
#[test]
fn mid_run_audit_is_invisible_under_sharding() {
    let run = |audit: bool| {
        let mut c = sharded_cluster(4);
        c.run_for(SimTime::from_ms(1));
        if audit {
            c.audit().assert_clean();
        }
        c.run_for(SimTime::from_ms(2));
        // The audited run legitimately carries `audit.*` bookkeeping
        // counters; everything else must be byte-identical.
        c.export_canonical_jsonl()
            .lines()
            .filter(|l| !l.contains("\"audit."))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(run(false), run(true));
}

// ------------------------------------------------------------------
// Ingress admission control and overload shedding
// ------------------------------------------------------------------

/// Pinned regression: `handle_deliver_corrupt` used to clamp the wire
/// size to `u16::MAX` when rebuilding the header, mislabeling jumbo
/// damage as an in-range frame with a bad checksum. Oversize corrupt
/// frames must be rejected explicitly with their own reason counter —
/// and still satisfy the frame-conservation ledger.
#[test]
fn oversize_corrupt_frames_are_rejected_explicitly() {
    let (mut c, a) = echo_cluster(2);
    c.set_fault_plan(FaultPlan::new(7).with_corruption(1.0));
    // >64 KiB requests: the 16-bit header length field cannot describe
    // them once damaged.
    c.set_client(
        0,
        Box::new(move |rng, _| ClientReq {
            dst: a,
            wire_size: 100_000,
            flow: rng.below(1 << 20),
            payload: None,
        }),
        4,
    );
    c.run_for(SimTime::from_ms(2));
    assert_eq!(c.completions().count(), 0, "every frame was damaged");
    let oversize = c.obs().registry().counter("fault.rx.oversize").get();
    let rejected = c.obs().registry().counter("fault.rx.rejected").get();
    assert_eq!(oversize, 4, "each jumbo frame rejected exactly once");
    assert_eq!(rejected, 4, "oversize rejections count as rejections");
    c.audit().assert_clean();
}

/// Pinned regression for the open-loop saturation leak: a generator at
/// 10x the admitted rate used to grow the in-flight ledger and retry
/// slot map without bound (arrivals are time-paced, completions are
/// not). With ingress admission the shed replies push back — the client
/// sheds at the source while the backoff hint is live — so both maps
/// stay bounded no matter how long saturation lasts.
#[test]
fn open_loop_ledgers_stay_bounded_at_10x_admitted_rate() {
    let (mut c, a) = echo_cluster(2);
    c.set_admission(AdmissionCfg {
        classes: vec![ClassCfg {
            rate_rps: 20_000,
            burst: 16,
            priority: 0,
        }],
        pressure_depth: usize::MAX,
        protect_priority: u8::MAX,
        max_backoff: SimTime::from_ms(1),
    });
    c.set_client_open_loop(
        0,
        Box::new(move |rng, _| ClientReq {
            dst: a,
            wire_size: 256,
            flow: rng.below(1 << 20),
            payload: None,
        }),
        OpenLoopCfg {
            rate_rps: 200_000.0, // 10x the admitted rate
            until: SimTime::from_ms(20),
        },
    );
    c.set_client_retry(0, lan_retry(), None);
    // Mid-saturation: the ledgers must already be bounded.
    c.run_for(SimTime::from_ms(10));
    let mid = c.completions();
    let abandoned = c.obs().registry().counter("client.retry.abandoned").get();
    let inflight = mid.issued() - mid.completed() - mid.shed() - abandoned;
    assert!(
        inflight < 200,
        "in-flight ledger must stay bounded under saturation: {inflight}"
    );
    c.audit().assert_clean();
    // Drain and close the books: issued splits exactly into completed,
    // shed and abandoned, with the shed share dominating at 10x.
    c.run_for(SimTime::from_ms(20));
    c.audit().assert_clean();
    let end = c.completions();
    let abandoned = c.obs().registry().counter("client.retry.abandoned").get();
    assert_eq!(end.issued(), end.completed() + end.shed() + abandoned);
    assert!(end.shed() > end.completed(), "most arrivals must shed");
    assert!(end.completed() > 100, "admitted traffic still completes");
    let src = c.obs().registry().counter("client.shed.source").get();
    assert!(src > 0, "backoff hints must suppress arrivals at source");
}

/// A shed reply ends the request, and a closed loop re-offers the freed
/// slot only once the hint has passed, with or without a retry policy: the
/// hint, not the retry timer, paces the loop to the admitted rate instead
/// of hammering the ingress.
#[test]
fn shed_replies_pace_a_closed_loop_at_the_admitted_rate() {
    for retry in [false, true] {
        let (mut c, a) = echo_cluster(2);
        c.set_admission(AdmissionCfg {
            classes: vec![ClassCfg {
                rate_rps: 50_000,
                burst: 4,
                priority: 0,
            }],
            pressure_depth: usize::MAX,
            protect_priority: u8::MAX,
            max_backoff: SimTime::from_us(500),
        });
        echo_client(&mut c, a, 16);
        if retry {
            let policy = RetryPolicy {
                timeout: SimTime::from_us(300),
                cap: SimTime::from_ms(5),
                max_tries: 64,
            };
            c.set_client_retry(0, policy, None);
        }
        c.run_for(SimTime::from_ms(10));
        let shed = c.obs().registry().counter("client.shed.remote").get();
        assert!(shed > 0, "16 outstanding against 50k rps must shed");
        let done = c.completions().count();
        // The bucket admits at most rate * time + burst = 504 in 10ms, and
        // the loop must keep moving.
        assert!((100..=520).contains(&done), "retry={retry} done={done}");
        c.audit().assert_clean();
    }
}

/// A depth-1 closed loop against an ingress whose bucket stays empty: every
/// request after the first is shed with the capped hint, and the shed slot
/// issues nothing before `now + retry_after` and exactly once at it.
#[test]
fn a_shed_slot_reissues_once_at_the_hint() {
    let hint = SimTime::from_us(200);
    let (mut c, a) = echo_cluster(2);
    c.set_admission(AdmissionCfg {
        classes: vec![ClassCfg {
            rate_rps: 1,
            burst: 1,
            priority: 0,
        }],
        pressure_depth: usize::MAX,
        protect_priority: u8::MAX,
        max_backoff: hint,
    });
    echo_client(&mut c, a, 1);
    let shed = c.obs().registry().counter("client.shed.remote");
    // The first request takes the bucket's one token; the second is shed.
    while shed.get() == 0 {
        c.run_for(SimTime::from_us(1));
    }
    let seen = c.now();
    assert_eq!(c.completions().issued(), 2);
    // The shed reply arrived in (seen - 1us, seen]: its one re-issue is
    // pending at that instant plus the hint.
    let mut issues = Vec::new();
    c.queue_of(0).for_each_pending(|at, ev| {
        if matches!(ev, Ev::Issue { .. }) {
            issues.push(at);
        }
    });
    assert_eq!(issues.len(), 1, "one re-offer per shed slot: {issues:?}");
    let at = issues[0];
    assert!(at > seen - SimTime::from_us(1) + hint && at <= seen + hint);
    c.run_for(at - SimTime::from_ns(1) - seen);
    assert_eq!(c.completions().issued(), 2, "nothing before the hint");
    c.run_for(SimTime::from_ns(1));
    assert_eq!(c.completions().issued(), 3, "one issue at the hint");
    let source = c.obs().registry().counter("client.shed.source").get();
    assert!(c.completions().shed() > 0);
    assert_eq!(c.completions().shed(), shed.get() + source);
    c.audit().assert_clean();
}

/// Priority-aware pressure shedding: while the NIC backlog exceeds the
/// configured depth, best-effort classes are refused outright and the
/// protected class keeps completing.
#[test]
fn pressure_shedding_protects_the_premium_class() {
    // Migration off so the slow actor cannot escape to the host: the
    // NIC cores must saturate and the mailbox backlog must build.
    let cfg = SchedConfig::for_nic(&CN2350).no_migration();
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(2)
        .sched(cfg)
        .seed(17)
        .build();
    // A slow actor so the FCFS backlog actually builds.
    let a = c.register_actor(
        0,
        "slow-echo",
        Box::new(Echo {
            cost: SimTime::from_us(30),
        }),
        Placement::Nic,
    );
    c.set_admission(AdmissionCfg {
        classes: vec![
            ClassCfg {
                rate_rps: 1_000_000,
                burst: 64,
                priority: 0,
            },
            ClassCfg {
                rate_rps: 1_000_000,
                burst: 64,
                priority: 1,
            },
        ],
        pressure_depth: 8,
        protect_priority: 1,
        max_backoff: SimTime::from_us(500),
    });
    c.set_client_class(0, 0);
    c.set_client_class(1, 1);
    for cl in 0..2 {
        c.set_client_open_loop(
            cl,
            Box::new(move |rng, _| ClientReq {
                dst: a,
                wire_size: 256,
                flow: rng.below(1 << 20),
                payload: None,
            }),
            OpenLoopCfg {
                rate_rps: 400_000.0,
                until: SimTime::from_ms(10),
            },
        );
    }
    c.run_for(SimTime::from_ms(30));
    c.audit().assert_clean();
    let shed = c.obs().registry().counter_on("admit.shed", 0).get();
    assert!(shed > 0, "overload must trigger pressure shedding");
    // Remote sheds terminate best-effort requests; the premium class is
    // exempt from pressure shedding and its bucket is far above the
    // offered rate, so the shed ledger is (almost entirely) client 0's
    // traffic and the premium client keeps completing.
    let done = c.completions();
    assert!(done.shed() > 0, "best-effort arrivals must be refused");
    // ~4000 premium arrivals are offered in the window; pressure never
    // sheds them, so a large completed share must survive even while
    // the best-effort class is being refused wholesale.
    assert!(
        done.completed() > 2_000,
        "the protected class must keep completing: {}",
        done.completed()
    );
}

/// `measured_wall`/`throughput_rps` must agree between serial and
/// sharded runs of the same scenario.
#[test]
fn sharded_and_serial_agree_on_measured_throughput() {
    let run = |shards: usize| {
        let mut c = sharded_cluster(shards);
        c.run_for(SimTime::from_ms(1));
        c.reset_measurements();
        c.run_for(SimTime::from_ms(2));
        c.audit().assert_clean();
        (c.measured_wall(), c.throughput_rps())
    };
    let (wall1, tput1) = run(1);
    assert!(tput1 > 0.0);
    for shards in [2, 4] {
        let (wall, tput) = run(shards);
        assert_eq!(wall, wall1, "{shards}-shard wall diverged");
        assert_eq!(tput, tput1, "{shards}-shard throughput diverged");
    }
}

/// DMO exhaustion degrades instead of panicking: an actor asking for
/// twice its region fails that allocation, falls back to half of it in
/// init, and still serves traffic.
#[test]
fn dmo_exhaustion_degrades_allocation_instead_of_panicking() {
    let mut c = Cluster::builder(CN2350)
        .servers(1)
        .clients(1)
        .seed(9)
        .build();
    let a = c.register_actor(
        0,
        "stateful-echo",
        Box::new(StatefulEcho {
            cost: SimTime::from_us(3),
            state: 2 * DMO_REGION_BYTES,
        }),
        Placement::Nic,
    );
    let usage = c.node(0).dmo.region_usage(a.actor);
    assert_eq!(usage, Some((DMO_REGION_BYTES, DMO_REGION_BYTES)));
    c.run_closed_loop(a, 8, 512, SimTime::from_ms(3));
    let done = c.completions().count();
    assert!(done > 500, "degraded actor must still serve: {done}");
    c.audit().assert_clean();
}

/// The overload machinery is exercised identically for every shard
/// count: same-seed runs with admission, spikes (via the in-place rate
/// swap) and shed pushback export byte-identical canonical JSONL.
#[test]
fn overload_shedding_is_byte_identical_across_shard_counts() {
    let run = |shards: usize| {
        let mut c = Cluster::builder(CN2350)
            .servers(2)
            .clients(2)
            .seed(23)
            .shards(shards)
            .obs(Obs::new(ipipe_sim::ObsConfig {
                level: TraceLevel::Spans,
                trace_capacity: 1 << 16,
            }))
            .build();
        let actors: Vec<Address> = (0..2)
            .map(|n| {
                c.register_actor(
                    n,
                    "echo",
                    Box::new(Echo {
                        cost: SimTime::from_us(2),
                    }),
                    Placement::Nic,
                )
            })
            .collect();
        c.set_admission(AdmissionCfg {
            classes: vec![
                ClassCfg {
                    rate_rps: 30_000,
                    burst: 8,
                    priority: 0,
                },
                ClassCfg {
                    rate_rps: 30_000,
                    burst: 8,
                    priority: 1,
                },
            ],
            pressure_depth: 64,
            protect_priority: 1,
            max_backoff: SimTime::from_ms(1),
        });
        for class in 0..2 {
            let cl = usize::from(class);
            c.set_client_class(cl, class);
            let targets = actors.clone();
            c.set_client_open_loop(
                cl,
                Box::new(move |rng, _| ClientReq {
                    dst: targets[rng.index(targets.len())],
                    wire_size: 256,
                    flow: rng.below(1 << 20),
                    payload: None,
                }),
                OpenLoopCfg {
                    rate_rps: 40_000.0,
                    until: SimTime::from_ms(8),
                },
            );
            c.set_client_retry(cl, lan_retry(), None);
        }
        c.run_for(SimTime::from_ms(2));
        // 10x spike through the in-place rate swap, then recovery.
        for cl in 0..2 {
            c.set_client_open_loop_rate(cl, 400_000.0);
        }
        c.run_for(SimTime::from_ms(2));
        for cl in 0..2 {
            c.set_client_open_loop_rate(cl, 40_000.0);
        }
        c.run_for(SimTime::from_ms(8));
        c.audit().assert_clean();
        let shed = c.completions().shed();
        assert!(shed > 0, "the spike must shed");
        let reg = c.obs().registry();
        let counted =
            reg.counter("client.shed.remote").get() + reg.counter("client.shed.source").get();
        assert_eq!(shed, counted);
        c.export_canonical_jsonl()
    };
    let serial = run(1);
    for shards in [2, 4] {
        assert_eq!(
            run(shards),
            serial,
            "{shards}-shard overload run must be byte-identical"
        );
    }
}
