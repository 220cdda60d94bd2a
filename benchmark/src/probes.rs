//! Micro-probes: host unit cost of each layer, measured from outside by
//! calling the layer's public functions in a loop (median of 7 batches of
//! `ops` operations). Probes run cache-hot and alone, so a unit cost is a
//! lower bound on what the same call costs inside a full simulation; the
//! `share.*` map built from them is an estimate and is labelled as one.

use crate::stats::median;
use ipipe::actor::Request;
use ipipe::nstack::{
    build_headers, build_tcp_headers, parse_headers, parse_tcp_headers, TcpHeader, WqeHeader,
    TCP_ACK,
};
use ipipe::ring::RingBuffer;
use ipipe::sched::{Loc, NicScheduler, SchedConfig, Work};
use ipipe_netsim::{NetModel, NodeId, Packet, PacketKind, TxPhase};
use ipipe_nicsim::CN2350;
use ipipe_sim::{DetRng, EventQueue, Obs, SimTime};
use ipipe_workload::agg::AggKvStream;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 7;

/// Median over `BATCHES` batches of the per-operation cost, in ns. `batch`
/// performs `ops` operations on state that persists across batches (so the
/// first batch doubles as warm-up and the median discards it).
fn ns_per_op(ops: u64, mut batch: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch(ops);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// `sim.event`: one `schedule` + its share of a `pop_batch`, with 64 short
/// periodic timers each emitting a same-instant burst over a standing
/// backlog of 1e5 long timers (the `desbench` shape).
fn sim_event(ops: u64) -> f64 {
    const TIMERS: u64 = 64;
    const BURST: u64 = 7;
    let mut rng = DetRng::new(1);
    let mut q = EventQueue::new();
    let mut next_id = TIMERS;
    let delay = |rng: &mut DetRng| SimTime::from_ns(rng.below(4096) * 256);
    for t in 0..TIMERS {
        q.schedule_after(delay(&mut rng), t);
    }
    for _ in 0..100_000 {
        // Far beyond anything the probe pops: these never fire.
        q.schedule_after(
            SimTime::from_secs(3600) + SimTime::from_ns(rng.below(60_000_000_000)),
            next_id,
        );
        next_id += 1;
    }
    let mut batch = Vec::new();
    ns_per_op(ops, |ops| {
        let mut fired = 0;
        while fired < ops {
            let now = q
                .pop_batch(&mut batch)
                .expect("timers keep the queue alive");
            fired += batch.len() as u64;
            for &id in &batch {
                if id < TIMERS {
                    let at = now + delay(&mut rng);
                    q.schedule_at(at, id);
                    for _ in 0..BURST {
                        q.schedule_at(at, next_id);
                        next_id += 1;
                    }
                }
            }
        }
    })
}

/// `sim.obs`: one registry record — the mean of a `Counter::inc` and a
/// `HistHandle::record`, the two operations the layers issue.
fn sim_obs(ops: u64) -> f64 {
    let obs = Obs::disabled();
    let ctr = obs.registry().counter_on("probe.counter", 1);
    let hist = obs.registry().hist_on("probe.hist", 1);
    let pair = ns_per_op(ops / 2, |pairs| {
        for i in 0..pairs {
            ctr.inc();
            hist.record(SimTime::from_ns(black_box(i * 37 + 5)));
        }
    });
    black_box((ctr.get(), hist.count()));
    pair / 2.0
}

/// `netsim.net`: `begin_transfer` + `finish_transfer` of a 512-byte frame
/// between rotating node pairs of a 64-node, 25 GbE model with its metrics
/// attached, as the runtime uses it.
fn netsim_net(ops: u64) -> f64 {
    let obs = Obs::disabled();
    let mut net = NetModel::new(64, 25.0);
    net.attach_obs(obs.registry());
    let mut now = SimTime::ZERO;
    let mut i = 0u64;
    ns_per_op(ops, |ops| {
        for _ in 0..ops {
            let (src, dst) = ((i % 64) as u16, ((i * 7 + 1) % 64) as u16);
            i += 1;
            if src == dst {
                continue;
            }
            now += SimTime::from_ns(200);
            let pkt = Packet::new(NodeId(src), NodeId(dst), i, 512, PacketKind::Request);
            if let TxPhase::Sent { port_ready } = net.begin_transfer(now, &pkt) {
                black_box(net.finish_transfer(port_ready, dst, 512));
            }
        }
    })
}

/// `ipipe.ring`: `RingBuffer::push` + `pop` of a 64-byte message.
fn ipipe_ring(ops: u64) -> f64 {
    let mut ring = RingBuffer::new(64 * 1024);
    let msg = [0xA5u8; 64];
    ns_per_op(ops, |ops| {
        for _ in 0..ops {
            ring.push(black_box(&msg)).expect("ring has room");
            black_box(ring.pop().expect("ring is sound"));
        }
    })
}

/// `ipipe.sched`: `on_arrival` → `next_for_core` → `on_complete` for one
/// request, 8 registered actors over the card's cores.
fn ipipe_sched(ops: u64) -> f64 {
    let mut s = NicScheduler::new(&CN2350, SchedConfig::for_nic(&CN2350).no_migration());
    for a in 0..8 {
        s.register(a, 512, Loc::Nic);
    }
    let cores = CN2350.cores as u64;
    let mut actions = Vec::new();
    let mut i = 0u64;
    ns_per_op(ops, |ops| {
        for _ in 0..ops {
            let now = SimTime::from_us(i);
            let core = (i % cores) as u32;
            s.on_arrival(
                now,
                Request {
                    actor: (i % 8) as u32,
                    flow: i,
                    wire_size: 512,
                    arrived: now,
                    reply_to: None,
                    token: i,
                    payload: None,
                },
            );
            if let Some(Work::Exec(r)) = s.next_for_core(now, core) {
                s.on_complete(
                    now + SimTime::from_us(10),
                    core,
                    r.actor,
                    SimTime::from_us(10),
                    SimTime::from_us(8),
                );
            }
            s.take_actions_into(&mut actions);
            i += 1;
        }
    })
}

/// `ipipe.nstack`: `build_headers` + `parse_headers` of one shim frame.
fn nstack_frame(ops: u64) -> f64 {
    let mut i = 0u64;
    ns_per_op(ops, |ops| {
        for _ in 0..ops {
            i += 1;
            let hdr = build_headers(black_box(WqeHeader {
                src_node: (i % 61) as u16,
                dst_node: (i % 59) as u16,
                flow: i as u16,
                actor: (i % 8) as u16,
                payload_len: 470,
            }))
            .expect("payload fits");
            black_box(parse_headers(black_box(&hdr)));
        }
    })
}

/// `ipipe.nstack` TCP pair: `build_tcp_headers` + `parse_tcp_headers`.
fn nstack_tcp_frame(ops: u64) -> f64 {
    let mut i = 0u64;
    ns_per_op(ops, |ops| {
        for _ in 0..ops {
            i += 1;
            let hdr = build_tcp_headers(black_box(TcpHeader {
                src_node: (i % 61) as u16,
                dst_node: (i % 59) as u16,
                src_port: 3,
                dst_port: 4,
                seq: i as u32,
                ack: (i >> 1) as u32,
                flags: TCP_ACK,
                window: 64,
                payload_len: 1460,
            }))
            .expect("payload fits");
            black_box(parse_tcp_headers(black_box(&hdr)));
        }
    })
}

/// `workload.agg`: `AggKvStream::op_for` with `rkv-steady`'s parameters.
fn workload_agg(ops: u64) -> f64 {
    let stream = AggKvStream::new(64 ^ 0xA66, 1 << 17, 1_000_000, 1.1, 0.95, 32);
    let mut token = 0u64;
    ns_per_op(ops, |ops| {
        for _ in 0..ops {
            token += 1;
            black_box(stream.op_for(black_box(token)));
        }
    })
}

/// Every unit cost, by per-layer metric name. `ops` is the batch size:
/// 1e6 for a measurement, less for a smoke run.
pub fn run_all(ops: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("sim.event.ns_per_op", sim_event(ops)),
        ("sim.obs.ns_per_record", sim_obs(ops)),
        ("netsim.net.ns_per_transfer", netsim_net(ops)),
        ("ipipe.ring.ns_per_msg", ipipe_ring(ops)),
        ("ipipe.sched.ns_per_req", ipipe_sched(ops)),
        ("ipipe.nstack.ns_per_frame", nstack_frame(ops)),
        ("ipipe.nstack.tcp_ns_per_frame", nstack_tcp_frame(ops)),
        ("workload.agg.ns_per_op", workload_agg(ops)),
    ]
}
