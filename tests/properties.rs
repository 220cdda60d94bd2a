//! Property-based tests (proptest) over the core data structures and
//! invariants, spanning crates.

use ipipe_repro::apps::micro::{KvCache, LpmRouter, PFabricScheduler};
use ipipe_repro::apps::rkv::lsm::{Levels, SsTable};
use ipipe_repro::apps::rta::regex::Regex;
use ipipe_repro::ipipe::actor::Request;
use ipipe_repro::ipipe::dmo::{DmoTable, Side};
use ipipe_repro::ipipe::ring::{RingBuffer, RingError};
use ipipe_repro::ipipe::sched::{Discipline, Loc, NicScheduler, SchedConfig, Work};
use ipipe_repro::ipipe::skiplist::{DmoSkipList, KEY_LEN};
use ipipe_repro::nicsim::crypto::{crc32, sha1};
use ipipe_repro::nicsim::CN2350;
use ipipe_repro::sim::{DetRng, EventQueue, Histogram, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, VecDeque};

fn key(i: u64) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k[8..].copy_from_slice(&i.to_be_bytes());
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DMO skip list behaves exactly like a BTreeMap under arbitrary
    /// insert/remove/get interleavings.
    #[test]
    fn skiplist_equals_btreemap(ops in prop::collection::vec((0u8..3, 0u64..64, 0u64..1000), 1..400)) {
        let mut table = DmoTable::new(Side::Nic);
        table.register_region(1, 64 << 20);
        let mut rng = DetRng::new(1);
        let mut dmo = table.scoped(1);
        let mut sl = DmoSkipList::create(&mut dmo).unwrap();
        let mut model: BTreeMap<[u8; KEY_LEN], Vec<u8>> = BTreeMap::new();
        for (op, k, v) in ops {
            let k = key(k);
            match op {
                0 => {
                    let val = v.to_le_bytes().to_vec();
                    sl.insert(&mut dmo, &mut rng, &k, &val).unwrap();
                    model.insert(k, val);
                }
                1 => {
                    let a = sl.remove(&mut dmo, &k).unwrap();
                    let b = model.remove(&k).is_some();
                    prop_assert_eq!(a, b);
                }
                _ => {
                    let a = sl.get(&mut dmo, &k).unwrap();
                    let b = model.get(&k).cloned();
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(sl.len() as usize, model.len());
        }
        let all = sl.iter_all(&mut dmo).unwrap();
        let expect: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(all, expect);
    }

    /// Ring buffers deliver every accepted message, in order, intact.
    #[test]
    fn ring_is_fifo_and_lossless(msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..200)) {
        let mut r = RingBuffer::new(2048);
        let mut model: VecDeque<Vec<u8>> = VecDeque::new();
        for m in &msgs {
            match r.push(m) {
                Ok(()) => model.push_back(m.clone()),
                Err(RingError::Full) => {
                    // Drain one and retry once.
                    if let Some((got, _)) = r.pop().unwrap() {
                        prop_assert_eq!(got, model.pop_front().unwrap());
                    }
                    if r.push(m).is_ok() {
                        model.push_back(m.clone());
                    }
                }
                Err(e) => prop_assert!(false, "unexpected {:?}", e),
            }
        }
        while let Some((got, _)) = r.pop().unwrap() {
            prop_assert_eq!(got, model.pop_front().unwrap());
        }
        prop_assert!(model.is_empty());
    }

    /// LSM reads equal a map model after arbitrary write/delete/flush mixes.
    #[test]
    fn lsm_equals_model(ops in prop::collection::vec((0u8..3, 0u64..128), 1..300)) {
        let mut levels = Levels::new(512, 4);
        let mut mem: BTreeMap<[u8; KEY_LEN], Option<Vec<u8>>> = BTreeMap::new();
        let mut model: HashMap<u64, Option<Vec<u8>>> = HashMap::new();
        for (i, (op, k)) in ops.into_iter().enumerate() {
            match op {
                0 => {
                    let v = (i as u64).to_le_bytes().to_vec();
                    mem.insert(key(k), Some(v.clone()));
                    model.insert(k, Some(v));
                }
                1 => {
                    mem.insert(key(k), None);
                    model.insert(k, None);
                }
                _ => {
                    if mem.len() > 16 {
                        levels.flush_memtable(std::mem::take(&mut mem).into_iter().collect());
                    }
                }
            }
        }
        levels.flush_memtable(mem.into_iter().collect());
        for (k, want) in model {
            let got = levels.get(&key(k));
            prop_assert_eq!(got, want);
        }
    }

    /// SSTable merge preserves newest-wins semantics.
    #[test]
    fn sstable_merge_newest_wins(newer in prop::collection::btree_map(0u64..64, 0u64..1000, 1..32),
                                 older in prop::collection::btree_map(0u64..64, 0u64..1000, 1..32)) {
        let to_table = |m: &BTreeMap<u64, u64>| {
            SsTable::from_sorted(m.iter().map(|(&k, &v)| (key(k), Some(v.to_le_bytes().to_vec()))).collect())
        };
        let merged = SsTable::merge(&[&to_table(&newer), &to_table(&older)], false);
        for k in newer.keys().chain(older.keys()) {
            let want = newer.get(k).or_else(|| older.get(k)).unwrap();
            let got = merged.get(&key(*k)).flatten().unwrap();
            let want_bytes = want.to_le_bytes();
            prop_assert_eq!(got, &want_bytes[..]);
        }
    }

    /// Digests are deterministic and sensitive to any single-byte change.
    #[test]
    fn digests_detect_mutations(data in prop::collection::vec(any::<u8>(), 1..256), idx in any::<prop::sample::Index>()) {
        let i = idx.index(data.len());
        let mut mutated = data.clone();
        mutated[i] ^= 0x01;
        prop_assert_eq!(sha1(&data), sha1(&data));
        prop_assert_ne!(sha1(&mutated), sha1(&data));
        prop_assert_ne!(crc32(&mutated), crc32(&data));
    }

    /// Histogram quantiles are monotone and bounded by min/max.
    #[test]
    fn histogram_quantiles_monotone(samples in prop::collection::vec(1u64..10_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimTime::from_ns(s));
        }
        let q: Vec<u64> = [0.01, 0.25, 0.5, 0.75, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q).as_ns())
            .collect();
        for w in q.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {:?}", q);
        }
        prop_assert!(q[5] <= h.max().as_ns());
        prop_assert!(h.min().as_ns() <= q[0] || samples.len() == 1);
    }

    /// The KV cache agrees with a HashMap under arbitrary op sequences.
    #[test]
    fn kvcache_equals_hashmap(ops in prop::collection::vec((0u8..3, 0u8..120), 1..400)) {
        let mut kv = KvCache::new(512);
        let mut model: HashMap<[u8; 16], [u8; 32]> = HashMap::new();
        for (op, kb) in ops {
            let mut k = [0u8; 16];
            k[0] = kb;
            match op {
                0 => {
                    kv.put(k, [kb; 32]);
                    model.insert(k, [kb; 32]);
                }
                1 => {
                    prop_assert_eq!(kv.del(&k), model.remove(&k).is_some());
                }
                _ => {
                    prop_assert_eq!(kv.get(&k).0, model.get(&k).copied());
                }
            }
        }
        prop_assert_eq!(kv.len(), model.len());
    }

    /// pFabric extract-min equals a binary heap.
    #[test]
    fn pfabric_equals_heap(ops in prop::collection::vec((any::<bool>(), 0u64..5000), 1..400)) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut s = PFabricScheduler::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        for (i, (push, v)) in ops.into_iter().enumerate() {
            if push || model.is_empty() {
                s.insert(v, i as u64);
                model.push(Reverse((v, i as u64)));
            } else {
                let got = s.pop_min().map(|(k, _)| k);
                let want = model.pop().map(|Reverse(k)| k);
                prop_assert_eq!(got, want);
            }
        }
    }

    /// LPM answers match a linear-scan oracle on random tables and probes.
    #[test]
    fn lpm_matches_oracle(routes in prop::collection::vec((any::<u32>(), 1u8..25), 1..64),
                          probes in prop::collection::vec(any::<u32>(), 1..64)) {
        fn mask(len: u8) -> u32 {
            if len == 0 { 0 } else { !0u32 << (32 - len) }
        }
        let mut r = LpmRouter::new();
        let mut installed: Vec<(u32, u8, u32)> = Vec::new();
        for (i, (p, l)) in routes.into_iter().enumerate() {
            let prefix = p & mask(l);
            if installed.iter().any(|(q, m, _)| *m == l && *q == prefix) {
                continue; // duplicate prefix: insertion order would decide
            }
            r.insert(prefix, l, i as u32);
            installed.push((prefix, l, i as u32));
        }
        for addr in probes {
            let oracle = installed
                .iter()
                .filter(|(p, l, _)| addr & mask(*l) == *p)
                .max_by_key(|(_, l, _)| *l)
                .map(|(_, _, nh)| *nh);
            prop_assert_eq!(r.lookup(addr).0, oracle, "addr={:#x}", addr);
        }
    }

    /// The regex engine agrees with a reference matcher on a restricted
    /// grammar (literal words with optional '.' wildcards).
    #[test]
    fn regex_literal_find_matches_contains(word in "[a-c]{1,6}", hay in "[a-c]{0,24}") {
        let re = Regex::new(&word).unwrap();
        prop_assert_eq!(re.find(&hay), hay.contains(&word));
        prop_assert_eq!(re.is_match(&word), true);
    }

    /// Scheduler conservation: under arbitrary arrival/dispatch/completion
    /// interleavings (any discipline) no request is lost — everything is
    /// either executed or still queued — and the scheduler never panics.
    #[test]
    fn scheduler_conserves_requests(
        disc_sel in 0u8..3,
        ops in prop::collection::vec((any::<bool>(), 0u32..6, 0u32..12), 1..500)
    ) {
        let discipline = match disc_sel {
            0 => Discipline::FcfsOnly,
            1 => Discipline::DrrOnly,
            _ => Discipline::Hybrid,
        };
        let cfg = SchedConfig::for_nic(&CN2350)
            .with_discipline(discipline)
            .no_migration();
        let mut s = NicScheduler::new(&CN2350, cfg);
        for a in 0..6 {
            s.register(a, 512, Loc::Nic);
        }
        let mut arrivals = 0u64;
        let mut executed = 0u64;
        let mut busy: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut now = SimTime::ZERO;
        for (arrive, actor, core) in ops {
            now += SimTime::from_us(3);
            if arrive {
                arrivals += 1;
                s.on_arrival(now, Request {
                    actor,
                    flow: arrivals,
                    wire_size: 512,
                    arrived: now,
                    reply_to: None,
                    token: arrivals,
                    payload: None,
                });
            } else if let Some(&a) = busy.get(&core) {
                // Complete whatever this core was running.
                busy.remove(&core);
                s.on_complete(now, core, a, SimTime::from_us(30), SimTime::from_us(25));
            } else if let Some(w) = s.next_for_core(now, core) {
                match w {
                    Work::Exec(r) => {
                        executed += 1;
                        busy.insert(core, r.actor);
                    }
                    Work::Forward(_) => {
                        prop_assert!(false, "no migration: forwards impossible");
                    }
                }
            }
        }
        // Conservation: executed + queued everywhere == arrivals.
        let queued = s.fcfs_depth() as u64
            + (0..6u32)
                .map(|a| s.actor(a).map(|x| x.mailbox_len() as u64).unwrap_or(0))
                .sum::<u64>();
        prop_assert_eq!(executed + queued, arrivals,
            "executed={} queued={} arrivals={}", executed, queued, arrivals);
    }

    /// Batched dispatch fires the same events at the same instants in the
    /// same order as the one-pop-per-event loop, stops at the same boundary
    /// and leaves the same events behind.
    #[test]
    fn batched_run_matches_per_event_run(
        delays in prop::collection::vec(0u64..4096, 1..200),
        end_ns in 0u64..120_000
    ) {
        let end = SimTime::from_ns(end_ns);
        let build = || {
            let mut q = EventQueue::new();
            for (i, d) in delays.iter().enumerate() {
                q.schedule_at(SimTime::from_ns((d / 32) * 32), i as u64);
            }
            q
        };
        // (fired log, next fresh id) — handlers occasionally reschedule at
        // their own timestamp to exercise same-instant follow-up batches.
        let mut per_event = (Vec::new(), delays.len() as u64);
        let mut q1 = build();
        q1.run_until(&mut per_event, end, |q, st, t, id| {
            st.0.push((t, id));
            if id % 7 == 0 && st.1 < 2 * delays.len() as u64 {
                q.schedule_at(t, st.1);
                st.1 += 1;
            }
        });
        // The runtime's loop (`Cluster::run_slice`): peek, stop past the
        // end, make the instant's batch current and take its events one at a
        // time. What a handler schedules at `t` must come back as a
        // follow-up batch at `t`, never be lost or reordered.
        let mut batched = (Vec::new(), delays.len() as u64);
        let mut q2 = build();
        while q2.peek_time().is_some_and(|at| at <= end) {
            let t = q2.next_batch().expect("peeked");
            while let Some(id) = q2.pop_ready() {
                batched.0.push((t, id));
                if id % 7 == 0 && batched.1 < 2 * delays.len() as u64 {
                    q2.schedule_at(t, batched.1);
                    batched.1 += 1;
                }
            }
        }
        q2.advance_to(end);
        prop_assert_eq!(&per_event.0, &batched.0);
        prop_assert_eq!(q1.now(), q2.now());
        let rest = |q: &mut EventQueue<u64>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        prop_assert_eq!(rest(&mut q1), rest(&mut q2));
    }
}

/// Fixed-cost echo actor for the sharding properties below.
struct PropEcho {
    cost: SimTime,
}

impl ipipe_repro::ipipe::actor::ActorLogic for PropEcho {
    fn exec(&mut self, ctx: &mut ipipe_repro::ipipe::actor::ActorCtx<'_>, req: Request) {
        ctx.charge(self.cost);
        ctx.reply(req, 64, None);
    }
}

/// Build and drive one echo cluster under `shards` event shards; returns
/// the audit outcome, completion count and canonical export.
#[allow(clippy::too_many_arguments)]
fn sharded_echo_run(
    seed: u64,
    servers: usize,
    clients: usize,
    shards: usize,
    outstanding: u32,
    cost_us: u64,
    loss_pct: u32,
    crash: bool,
) -> (bool, String, u64, String) {
    use ipipe_repro::ipipe::actor::Address;
    use ipipe_repro::ipipe::rt::{ClientReq, Cluster, Placement, RetryPolicy};
    use ipipe_repro::netsim::FaultPlan;

    let mut c = Cluster::builder(CN2350)
        .servers(servers)
        .clients(clients)
        .seed(seed)
        .shards(shards)
        .build();
    let actors: Vec<Address> = (0..servers)
        .map(|n| {
            c.register_actor(
                n,
                "echo",
                Box::new(PropEcho {
                    cost: SimTime::from_us(cost_us),
                }),
                Placement::Nic,
            )
        })
        .collect();
    for cl in 0..clients {
        let targets = actors.clone();
        c.set_client(
            cl,
            Box::new(move |rng, _| ClientReq {
                dst: targets[rng.index(targets.len())],
                wire_size: 128,
                flow: rng.below(1 << 20),
                payload: None,
            }),
            outstanding,
        );
        c.set_client_retry(
            cl,
            RetryPolicy {
                timeout: SimTime::from_us(300),
                cap: SimTime::from_ms(2),
                max_tries: 16,
            },
            None,
        );
    }
    let mut plan = FaultPlan::new(seed ^ 0xBEEF).with_loss(loss_pct as f64 / 100.0);
    if crash {
        plan = plan.with_crash(0, SimTime::from_ms(1), SimTime::from_ms(2));
    }
    c.set_fault_plan(plan);
    c.run_for(SimTime::from_ms(2));
    let report = c.audit();
    c.run_for(SimTime::from_ms(1));
    (
        report.is_clean(),
        report.render(),
        c.completions().count(),
        c.export_canonical_jsonl(),
    )
}

/// Pinned (non-random) guard for the sharded engine's observability
/// contract: the shard count must not leak into a single exported byte —
/// not a metric name, not a trace record, not the meta line — and the
/// canonical Chrome export must be equally invariant.
#[test]
fn shard_count_leaves_no_fingerprint_in_exports() {
    use ipipe_repro::ipipe::actor::Address;
    use ipipe_repro::ipipe::rt::{ClientReq, Cluster, Placement};

    let run = |shards: usize| {
        let mut c = Cluster::builder(CN2350)
            .servers(4)
            .clients(2)
            .seed(99)
            .shards(shards)
            .build();
        let actors: Vec<Address> = (0..4)
            .map(|n| {
                c.register_actor(
                    n,
                    "echo",
                    Box::new(PropEcho {
                        cost: SimTime::from_us(5),
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
                    wire_size: 128,
                    flow: rng.below(1 << 20),
                    payload: None,
                }),
                4,
            );
        }
        c.run_for(SimTime::from_ms(2));
        (c.export_canonical_jsonl(), c.obs().export_chrome())
    };
    let (jsonl1, chrome1) = run(1);
    for shards in [2, 4, 5] {
        let (jsonl, chrome) = run(shards);
        assert_eq!(jsonl, jsonl1, "{shards}-shard JSONL export diverged");
        assert_eq!(chrome, chrome1, "{shards}-shard Chrome export diverged");
    }
    // Nothing in the export names the engine's partitioning.
    assert!(
        !jsonl1.to_lowercase().contains("shard"),
        "export mentions sharding:\n{jsonl1}"
    );
    assert!(jsonl1.lines().count() > 20, "export suspiciously small");
}

// Scenario-level audit properties: whole-cluster runs are slower than the
// data-structure properties above, so they get a smaller case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The sharded engine is a pure execution mechanism: for random seeds,
    /// topologies, shard counts (including counts above the node count,
    /// which clamp) and fault plans, the canonical export, completion count
    /// and mid-run audit all byte-match the 1-shard serial reference.
    #[test]
    fn sharded_runs_byte_match_serial(
        seed in any::<u64>(),
        servers in 2usize..7,
        clients in 1usize..4,
        shards in 2usize..12,
        outstanding in 1u32..9,
        cost_us in 1u64..20,
        loss_pct in 0u32..3,
        crash in any::<bool>(),
    ) {
        let (clean1, report1, done1, export1) = sharded_echo_run(
            seed, servers, clients, 1, outstanding, cost_us, loss_pct, crash,
        );
        prop_assert!(clean1, "serial audit dirty:\n{}", report1);
        let (clean_n, report_n, done_n, export_n) = sharded_echo_run(
            seed, servers, clients, shards, outstanding, cost_us, loss_pct, crash,
        );
        prop_assert!(clean_n, "{}-shard audit dirty:\n{}", shards, report_n);
        prop_assert_eq!(done_n, done1, "completions diverged under {} shards", shards);
        prop_assert_eq!(export_n, export1, "canonical export diverged under {} shards", shards);
    }

    /// The quiesce-time conservation audit holds across random seeds,
    /// replica counts and fault intensities for the RKV scenario (a
    /// miniature of the rkv-fault acceptance run: seeded loss, client
    /// retries, heartbeat failover and — at quorum-safe sizes — a leader
    /// crash). Afterwards, an injected in-flight leak through the test-only
    /// hook must be caught by the same audit.
    #[test]
    fn cluster_audit_clean_on_random_rkv_runs(
        seed in any::<u64>(),
        replicas in 1usize..4,
        loss_pct in 0u32..3,
        outstanding in 1u32..9,
    ) {
        use ipipe_repro::apps::rkv::actors::{deploy_rkv_with, HeartbeatCfg, RkvMsg};
        use ipipe_repro::apps::rkv::lsm::KEY_LEN;
        use ipipe_repro::ipipe::rt::{ClientReq, Cluster, RetryPolicy, RuntimeMode};
        use ipipe_repro::netsim::FaultPlan;
        use ipipe_repro::workload::kv::KvOp;

        let put_for = |token: u64| {
            let mut key = [0u8; KEY_LEN];
            key[..8].copy_from_slice(&token.to_le_bytes());
            KvOp::Put { key, value: vec![0xCD; 24] }
        };
        let mut c = Cluster::builder(CN2350)
            .servers(replicas)
            .clients(1)
            .mode(RuntimeMode::IPipe)
            .seed(seed)
            .build();
        let dep = deploy_rkv_with(
            &mut c,
            &(0..replicas).collect::<Vec<_>>(),
            8 << 20,
            Some(HeartbeatCfg::lan_default()),
        );
        let leader = dep.consensus[0];
        c.set_client(0, Box::new(move |rng, token| {
            let op = put_for(token);
            ClientReq {
                dst: leader,
                wire_size: 42 + op.wire_size(),
                flow: rng.below(1 << 20),
                payload: Some(Box::new(RkvMsg::Client(op))),
            }
        }), outstanding);
        c.set_client_retry(0, RetryPolicy {
            timeout: SimTime::from_us(200),
            cap: SimTime::from_ms(2),
            max_tries: 16,
        }, Some(Box::new(move |token| Some(Box::new(RkvMsg::Client(put_for(token)))))));
        let mut plan = FaultPlan::new(seed ^ 0xFA17).with_loss(loss_pct as f64 / 100.0);
        if replicas == 3 {
            // Only crash when a quorum survives the outage.
            plan = plan.with_crash(0, SimTime::from_ms(1), SimTime::from_ms(2));
        }
        c.set_fault_plan(plan);
        c.run_for(SimTime::from_ms(3));
        let r = c.audit();
        prop_assert!(r.is_clean(), "audit after clean run:\n{}", r.render());

        // Now sabotage the ledger: vanish one in-flight request behind the
        // accounting's back and require the audit to notice.
        if c.debug_drop_inflight(0) {
            let r = c.audit();
            prop_assert!(!r.is_clean(), "leak not caught");
            prop_assert!(
                r.violations().iter().any(|v| v.invariant == "client.conservation"),
                "wrong invariant: {}", r.render()
            );
        }
    }

    /// Fig 16 cells audit clean at quiesce for random seeds, disciplines and
    /// loads (`run_fig16` sweeps the scheduler ledgers after the event queue
    /// drains and panics on any violation).
    #[test]
    fn fig16_audit_clean_on_random_cells(
        seed in any::<u64>(),
        disc_sel in 0u8..3,
        load_pct in 20u32..95,
        high_dispersion in any::<bool>(),
    ) {
        use ipipe_repro::baseline::fig16::run_fig16;
        use ipipe_repro::workload::service::{fig16_distribution, Dispersion, Fig16Card};

        let discipline = match disc_sel {
            0 => Discipline::FcfsOnly,
            1 => Discipline::DrrOnly,
            _ => Discipline::Hybrid,
        };
        let dispersion = if high_dispersion { Dispersion::High } else { Dispersion::Low };
        let dist = fig16_distribution(Fig16Card::LiquidIo, dispersion);
        let load = load_pct as f64 / 100.0;
        let p = run_fig16(&CN2350, dist, discipline, load, 8, 4_000, seed);
        prop_assert!(p.completed > 0);
    }
}

// Multi-group placement properties: cheap table-level checks get the full
// case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The routing table is a pure function of `(seed, buckets, groups)` —
    /// two builds agree bucket for bucket — its bucket→group assignment is
    /// exactly balanced (±1), and under Zipf key popularity at any skew in
    /// [0.9, 1.3] every group still sees traffic while no group absorbs
    /// more than the hottest key's share plus its fair slice.
    #[test]
    fn placement_is_deterministic_and_balanced(
        seed in any::<u64>(),
        groups in 4usize..17,
        buckets_per_group in 16usize..65,
        skew_pct in 90u32..131,
    ) {
        use ipipe_repro::apps::rkv::placement::RoutingTable;
        use ipipe_repro::ipipe::actor::Address;
        use ipipe_repro::workload::agg::AggKvStream;

        let buckets = groups * buckets_per_group;
        let leaders: Vec<Address> = (0..groups)
            .map(|g| Address { node: g as u16, actor: g as u32 })
            .collect();
        let a = RoutingTable::build(seed, buckets, leaders.clone());
        let b = RoutingTable::build(seed, buckets, leaders.clone());
        for key in (0..512u64).map(ipipe_repro::workload::kv::encode_key) {
            prop_assert_eq!(a.group_of(&key), b.group_of(&key), "same seed diverged");
        }
        prop_assert_eq!(a.version, b.version);
        // Bucket assignment is exactly balanced by construction.
        let loads = a.loads();
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        prop_assert!(max - min <= 1, "bucket loads unbalanced: {:?}", loads);
        // Traffic balance under Zipf popularity: count routed ops per group.
        let skew = skew_pct as f64 / 100.0;
        let stream = AggKvStream::new(seed ^ 0x217, 1 << 30, 100_000, skew, 1.0, 8);
        let mut per_group = vec![0u64; groups];
        for token in 0..20_000u64 {
            per_group[a.group_of(stream.op_for(token).key()) as usize] += 1;
        }
        let total: u64 = per_group.iter().sum();
        let min = *per_group.iter().min().unwrap();
        let max = *per_group.iter().max().unwrap();
        prop_assert!(min > 0, "a group saw no traffic: {:?}", per_group);
        // Even at skew 1.3 the hottest key carries < ~30% of draws, so no
        // group may exceed the hot key plus ~twice its fair share of the rest.
        let bound = (total as f64 * (0.30 + 2.0 / groups as f64)).ceil() as u64;
        prop_assert!(
            max <= bound,
            "group load {} exceeds bound {} (groups {}, skew {:.2}): {:?}",
            max, bound, groups, skew, per_group
        );
    }
}

// Multi-group cluster properties: whole-cluster runs, small case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A forced mid-run shard move (`Cluster::force_migrate`: four-phase
    /// migration of a group's leader-side actors off the NIC) leaves both
    /// the cluster-wide conservation audit and the per-group exactly-once
    /// reconciliation clean, on the source and destination groups alike.
    #[test]
    fn shard_move_keeps_exactly_once_audit_clean(
        seed in any::<u64>(),
        groups in 2usize..6,
        hot in 0usize..6,
        outstanding in 4u32..17,
    ) {
        use ipipe_repro::apps::rkv::actors::RkvMsg;
        use ipipe_repro::apps::rkv::multi::{
            audit_multi_rkv_exactly_once, deploy_multi_rkv, MultiRkvCfg,
        };
        use ipipe_repro::ipipe::rt::{ClientReq, Cluster, RuntimeMode};
        use ipipe_repro::sim::audit::AuditReport;
        use ipipe_repro::workload::agg::AggKvStream;
        use std::cell::RefCell;
        use std::rc::Rc;

        let hot = hot % groups;
        let mut c = Cluster::builder(CN2350)
            .servers(6)
            .clients(1)
            .mode(RuntimeMode::IPipe)
            .seed(seed)
            .build();
        let dep = deploy_multi_rkv(&mut c, &MultiRkvCfg {
            groups,
            replicas: 3,
            server_nodes: 6,
            buckets: 256,
            memtable_flush: 8 << 20,
            heartbeat: None,
            seed,
        });
        let stream = AggKvStream::new(seed ^ 0x5ca1e, 1 << 16, 50_000, 1.0, 0.0, 24);
        let table = dep.table.clone();
        let ledger = Rc::new(RefCell::new(vec![0u64; groups]));
        let gen_ledger = ledger.clone();
        let gen = Box::new(move |rng: &mut DetRng, token: u64| {
            let op = stream.op_for(token);
            let g = table.group_of(op.key());
            gen_ledger.borrow_mut()[g as usize] += 1;
            ClientReq {
                dst: table.leader_of(g),
                wire_size: 42 + op.wire_size(),
                flow: rng.below(1 << 20),
                payload: Some(Box::new(RkvMsg::Client(op))),
            }
        });
        c.set_client(0, gen, outstanding);
        c.run_for(SimTime::from_ms(3));
        // The move under test: the hot group's leader-side actors leave the
        // NIC mid-traffic.
        let moved = c.force_migrate(dep.groups[hot].memtable[0]);
        prop_assert!(moved, "migration refused");
        c.force_migrate(dep.groups[hot].consensus[0]);
        c.run_for(SimTime::from_ms(3));
        // Stop issuing and drain the in-flight tail.
        c.set_client_depth(0, 0);
        c.run_for(SimTime::from_ms(5));
        let stats = c.completions();
        prop_assert_eq!(stats.issued(), stats.completed(), "tail did not drain");
        let r = c.audit();
        prop_assert!(r.is_clean(), "conservation audit across move:\n{}", r.render());
        let writes = ledger.borrow().clone();
        let mut r = AuditReport::new(c.now());
        audit_multi_rkv_exactly_once(c.obs().registry(), &dep, &writes, true, &mut r);
        prop_assert!(r.is_clean(), "exactly-once across move:\n{}", r.render());
    }
}

/// Build and drive one echo cluster with NIC-ingress admission under a
/// mid-run open-loop spike; returns the audit outcome, the shed ledger
/// `(issued, completed, shed, abandoned)`, and the canonical export.
#[allow(clippy::too_many_arguments)]
fn overload_echo_run(
    seed: u64,
    servers: usize,
    clients: usize,
    shards: usize,
    classes: usize,
    admit_rps: u64,
    burst: u32,
    spike_factor: f64,
) -> (bool, String, (u64, u64, u64, u64), String) {
    use ipipe_repro::ipipe::actor::Address;
    use ipipe_repro::ipipe::admission::{AdmissionCfg, ClassCfg};
    use ipipe_repro::ipipe::rt::{ClientReq, Cluster, OpenLoopCfg, Placement, RetryPolicy};

    let mut c = Cluster::builder(CN2350)
        .servers(servers)
        .clients(clients)
        .seed(seed)
        .shards(shards)
        .build();
    let actors: Vec<Address> = (0..servers)
        .map(|n| {
            c.register_actor(
                n,
                "echo",
                Box::new(PropEcho {
                    cost: SimTime::from_us(2),
                }),
                Placement::Nic,
            )
        })
        .collect();
    c.set_admission(AdmissionCfg {
        classes: (0..classes)
            .map(|p| ClassCfg {
                rate_rps: admit_rps,
                burst,
                priority: p as u8,
            })
            .collect(),
        pressure_depth: 64,
        protect_priority: classes.saturating_sub(1) as u8,
        max_backoff: SimTime::from_us(500),
    });
    let base_rate = admit_rps as f64;
    for cl in 0..clients {
        let targets = actors.clone();
        c.set_client_open_loop(
            cl,
            Box::new(move |rng, _| ClientReq {
                dst: targets[rng.index(targets.len())],
                wire_size: 128,
                flow: rng.below(1 << 20),
                payload: None,
            }),
            OpenLoopCfg {
                rate_rps: base_rate,
                until: SimTime::from_ms(3),
            },
        );
        c.set_client_retry(
            cl,
            RetryPolicy {
                timeout: SimTime::from_us(300),
                cap: SimTime::from_ms(2),
                max_tries: 16,
            },
            None,
        );
        c.set_client_class(cl, (cl % classes) as u8);
    }
    // Pre-spike window, spike window at `spike_factor` x, recovery window —
    // every rate change lands on a run_for barrier.
    c.run_for(SimTime::from_ms(1));
    for cl in 0..clients {
        c.set_client_open_loop_rate(cl, base_rate * spike_factor);
    }
    c.run_for(SimTime::from_ms(1));
    for cl in 0..clients {
        c.set_client_open_loop_rate(cl, base_rate);
    }
    c.run_for(SimTime::from_ms(1));
    // Drain until the shed-conservation ledger balances.
    for _ in 0..16 {
        let s = c.completions();
        let abandoned = c.obs().registry().counter("client.retry.abandoned").get();
        if s.issued() == s.completed() + s.shed() + abandoned {
            break;
        }
        c.run_for(SimTime::from_ms(1));
    }
    let report = c.audit();
    let s = c.completions();
    let abandoned = c.obs().registry().counter("client.retry.abandoned").get();
    (
        report.is_clean(),
        report.render(),
        (s.issued(), s.completed(), s.shed(), abandoned),
        c.export_canonical_jsonl(),
    )
}

// Overload/admission properties: whole-cluster runs, small case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Shed conservation under randomized overload: for random seeds, client
    /// classes, admission envelopes, spike magnitudes and shard counts,
    /// every issued request ends up exactly one of completed / shed /
    /// abandoned once drained, the cluster audit (ingress admit ledgers and
    /// client shed counters included) is clean, and the sharded run
    /// byte-matches the serial reference.
    #[test]
    fn overload_shed_conservation_holds_and_shards_byte_match(
        seed in any::<u64>(),
        servers in 2usize..5,
        clients in 2usize..5,
        shards in 2usize..7,
        classes in 1usize..4,
        admit_krps in 10u64..60,
        burst in 1u32..32,
        spike_factor in 4u64..13,
    ) {
        let admit_rps = admit_krps * 1_000;
        let (clean1, report1, ledger1, export1) = overload_echo_run(
            seed, servers, clients, 1, classes, admit_rps, burst, spike_factor as f64,
        );
        prop_assert!(clean1, "serial audit dirty:\n{}", report1);
        let (issued, completed, shed, abandoned) = ledger1;
        prop_assert_eq!(
            issued,
            completed + shed + abandoned,
            "shed conservation violated: issued {} != completed {} + shed {} + abandoned {}",
            issued, completed, shed, abandoned
        );
        prop_assert!(issued > 0, "no traffic generated");
        let (clean_n, report_n, ledger_n, export_n) = overload_echo_run(
            seed, servers, clients, shards, classes, admit_rps, burst, spike_factor as f64,
        );
        prop_assert!(clean_n, "{}-shard audit dirty:\n{}", shards, report_n);
        prop_assert_eq!(ledger_n, ledger1, "shed ledger diverged under {} shards", shards);
        prop_assert_eq!(export_n, export1, "canonical export diverged under {} shards", shards);
    }
}

/// One TCP-offload transfer on a 2-server cluster: returns the quiesce
/// ledger (delivered, mismatched, retx, rto), whether the merged audit —
/// cluster conservation plus the TCP slice (`sent == acked + in-flight +
/// lost-pending-rto`, exactly-once in-order delivery) — came out clean,
/// the report text, and the canonical export for shard diffing.
#[allow(clippy::too_many_arguments)]
fn tcp_transfer_run(
    seed: u64,
    shards: usize,
    total_bytes: u64,
    loss: f64,
    mss: u32,
    cwnd_cap_segs: u32,
) -> ((u64, u64, u64, u64), bool, String, String) {
    use ipipe_repro::ipipe::rt::{Cluster, Placement};
    use ipipe_repro::ipipe::tcp::{audit_tcp_into, deploy_tcp_pair, TcpCfg};
    use ipipe_repro::netsim::FaultPlan;

    let mut cfg = TcpCfg::lan(total_bytes, seed ^ 0x5EED);
    cfg.mss = mss;
    cfg.cwnd_cap_segs = cwnd_cap_segs;
    cfg.init_cwnd_segs = cfg.init_cwnd_segs.min(cwnd_cap_segs);
    let mut c = Cluster::builder(CN2350)
        .servers(2)
        .clients(1)
        .seed(seed)
        .shards(shards)
        .build();
    if loss > 0.0 {
        c.set_fault_plan(FaultPlan::new(seed ^ 0x10_55).with_loss(loss));
    }
    let ep = deploy_tcp_pair(&mut c, cfg, 0, 1, 1, Placement::Nic);
    for _ in 0..400 {
        c.run_for(SimTime::from_ms(1));
        if ep.tx.closed.get() == 1 {
            break;
        }
    }
    c.run_for(cfg.rto_max + cfg.rto_max); // let the closed sender's last timer fire
    let mut r = c.audit();
    audit_tcp_into(&mut r, &ep);
    (
        (
            ep.rx.delivered_bytes.get(),
            ep.rx.mismatched_bytes.get(),
            ep.tx.retx_segs.get(),
            ep.tx.rto_fired.get(),
        ),
        r.is_clean(),
        format!("{r:?}"),
        c.export_canonical_jsonl(),
    )
}

// TCP-offload properties: whole-cluster transfers, small case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Exactly-once in-order TCP delivery under randomized seeds, loss
    /// rates (up to 10%), MSS and congestion-window caps: the stream
    /// always arrives complete and byte-correct, the conservation audit
    /// (`sent == acked + in-flight + lost-pending-rto`) is clean at
    /// quiesce, and a sharded run byte-matches the serial reference.
    #[test]
    fn tcp_delivery_is_exactly_once_in_order(
        seed in any::<u64>(),
        total_kb in 8u64..64,
        loss_pct in 0u32..11,
        mss in 256u32..1461,
        cwnd_cap in 2u32..33,
        shards in 2usize..5,
    ) {
        let total = total_kb << 10;
        let loss = loss_pct as f64 / 100.0;
        let (ledger1, clean1, report1, export1) =
            tcp_transfer_run(seed, 1, total, loss, mss, cwnd_cap);
        let (delivered, mismatched, retx, _rto) = ledger1;
        prop_assert!(clean1, "serial audit dirty:\n{}", report1);
        prop_assert_eq!(delivered, total, "stream must arrive complete, exactly once");
        prop_assert_eq!(mismatched, 0, "delivered bytes must match the reference stream");
        if loss_pct == 0 {
            prop_assert_eq!(retx, 0, "lossless transfers must not retransmit");
        }
        let (ledger_n, clean_n, report_n, export_n) =
            tcp_transfer_run(seed, shards, total, loss, mss, cwnd_cap);
        prop_assert!(clean_n, "{}-shard audit dirty:\n{}", shards, report_n);
        prop_assert_eq!(ledger_n, ledger1, "tcp ledger diverged under {} shards", shards);
        prop_assert_eq!(export_n, export1, "canonical export diverged under {} shards", shards);
    }
}
