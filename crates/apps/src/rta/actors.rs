//! The RTA actors (§4): filter → counter → ranker, each worker using "a
//! topology mapping table to determine the next worker to which the result
//! should be forwarded".

use super::pipeline::{Counter, Filter, Ranker};
use ipipe::prelude::*;
use ipipe::rt::{ClientGenFn, ClientReq, Cluster};
use ipipe_workload::rta::{RtaWorkload, Tuple, INTERESTING_WORDS, TUPLE_WIRE_BYTES};

/// Messages between RTA actors.
pub enum RtaMsg {
    /// A batch of raw tuples from the data source (one request packet).
    Batch(Vec<Tuple>),
    /// A (topic, windowed count) emission from counter to ranker.
    Count {
        /// Topic.
        topic: u32,
        /// Windowed count.
        count: u64,
    },
    /// Top-n update from a ranker to the aggregated ranker.
    TopN(Vec<(u32, u64)>),
}

/// The closed-loop client of every RTA figure and example: `packet`-byte
/// tuple batches from `wl`, dealt round-robin over `filters`.
pub fn client_gen(filters: Vec<Address>, packet: u32, mut wl: RtaWorkload) -> ClientGenFn {
    let mut next = 0usize;
    Box::new(move |rng, _| {
        let dst = filters[next % filters.len()];
        next += 1;
        ClientReq {
            dst,
            wire_size: packet,
            flow: rng.below(1 << 20),
            payload: Some(Box::new(RtaMsg::Batch(wl.next_request(packet)))),
        }
    })
}

/// The topology mapping table: where each stage forwards its results. A
/// deployment reserves the addresses before any actor exists and hands each
/// worker its own next hop.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Counter stage address per worker node.
    pub counter: Vec<Address>,
    /// Ranker stage address per worker node.
    pub ranker: Vec<Address>,
    /// The aggregated ranker (one per deployment).
    pub aggregator: Address,
}

/// The filter actor (stateless).
pub struct FilterActor {
    filter: Filter,
    /// This worker's counter stage.
    counter: Address,
    /// Tuples kept / dropped (diagnostics).
    pub kept: u64,
    /// Dropped tuples.
    pub dropped: u64,
}

impl FilterActor {
    /// Filter with the default interesting-word patterns, forwarding what
    /// it keeps to `counter`.
    pub fn new(counter: Address) -> FilterActor {
        FilterActor {
            filter: Filter::new(&INTERESTING_WORDS),
            counter,
            kept: 0,
            dropped: 0,
        }
    }
}

impl ActorLogic for FilterActor {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        // Pattern set lives in a DMO so migration moves it (§3.3).
        let _ = ctx.dmo().malloc(self.state_hint_bytes());
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let token = req.token;
        let client = req.reply_to;
        let msg = req.payload_as::<RtaMsg>();
        if let RtaMsg::Batch(tuples) = *msg {
            // NFA simulation cost: states x bytes, ~1.1ns per state-byte on
            // the wimpy core.
            let scanned: usize = tuples.iter().map(|t| t.text.len()).sum();
            ctx.charge_work((self.filter.total_states() as u64 * scanned as u64) / 48);
            let kept: Vec<Tuple> = tuples
                .into_iter()
                .filter(|t| {
                    let k = self.filter.keep(t);
                    if k {
                        self.kept += 1;
                    } else {
                        self.dropped += 1;
                    }
                    k
                })
                .collect();
            if !kept.is_empty() {
                let size = (kept.len() as u32 * TUPLE_WIRE_BYTES).min(1400);
                ctx.send(
                    self.counter,
                    token,
                    size,
                    token,
                    Some(Box::new(RtaMsg::Batch(kept))),
                );
            }
            // The data source gets a per-packet ack (the closed-loop driver
            // uses it as the completion signal).
            if let Some(c) = client {
                ctx.reply_to(c, 64, token, None);
            }
        }
    }

    fn host_speedup(&self) -> f64 {
        2.8 // regex scan: compute-bound
    }

    fn state_hint_bytes(&self) -> u64 {
        16 * 1024
    }
}

/// The counter actor: sliding-window statistics behind "a software-managed
/// cache".
pub struct CounterActor {
    counter: Counter,
    /// This worker's ranker stage.
    ranker: Address,
}

impl CounterActor {
    /// Counter emitting to `ranker`.
    pub fn new(ranker: Address) -> CounterActor {
        CounterActor {
            // 16 slots of 256 tuples, emitting every 8 tuples.
            counter: Counter::new(16, 256, 8),
            ranker,
        }
    }
}

impl ActorLogic for CounterActor {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        // The sliding-window statistics live in a DMO region.
        let _ = ctx.dmo().malloc(self.state_hint_bytes());
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let token = req.token;
        let msg = req.payload_as::<RtaMsg>();
        if let RtaMsg::Batch(tuples) = *msg {
            ctx.charge_work(300 + 260 * tuples.len() as u64);
            for t in &tuples {
                for (topic, count) in self.counter.ingest(t) {
                    ctx.send(
                        self.ranker,
                        token,
                        48,
                        token,
                        Some(Box::new(RtaMsg::Count { topic, count })),
                    );
                }
            }
        }
    }

    fn host_speedup(&self) -> f64 {
        1.7 // hash-map heavy: memory-bound
    }

    fn state_hint_bytes(&self) -> u64 {
        2 << 20
    }
}

/// The ranker actor: quicksort top-n, forwarding to the aggregated ranker.
/// This is the heavyweight stage that iPipe migrates to the host when
/// network load is high (§4: "quicksort ... could impact the NIC's ability
/// to receive new data tuples").
pub struct RankerActor {
    ranker: Ranker,
    /// Where top-n updates go; `None` makes this the aggregated ranker.
    aggregator: Option<Address>,
    /// Top-n emissions produced.
    pub emissions: u64,
}

impl RankerActor {
    /// Per-worker ranker, forwarding its top-n to `aggregator`.
    pub fn new(aggregator: Address) -> RankerActor {
        RankerActor {
            aggregator: Some(aggregator),
            ..RankerActor::aggregator()
        }
    }

    /// The deployment-wide aggregated ranker.
    pub fn aggregator() -> RankerActor {
        RankerActor {
            ranker: Ranker::new(10),
            aggregator: None,
            emissions: 0,
        }
    }
}

impl ActorLogic for RankerActor {
    fn init(&mut self, ctx: &mut ActorCtx<'_>) {
        // The consolidated top-n object (§4: "we consolidate all top-n data
        // tuples into one object").
        let _ = ctx.dmo().malloc(self.state_hint_bytes());
    }

    fn exec(&mut self, ctx: &mut ActorCtx<'_>, mut req: Request) {
        let token = req.token;
        let msg = req.payload_as::<RtaMsg>();
        match *msg {
            RtaMsg::Count { topic, count } => {
                let sorted = self.ranker.update(topic, count);
                // Quicksort cost: n log n comparisons at ~6ns each.
                let n = sorted.max(2) as u64;
                ctx.charge_work(500 + 6 * n * n.ilog2() as u64);
                if let Some(agg) = self.aggregator {
                    self.emissions += 1;
                    let top = self.ranker.top();
                    ctx.send(
                        agg,
                        token,
                        (top.len() as u32) * 12 + 32,
                        token,
                        Some(Box::new(RtaMsg::TopN(top))),
                    );
                }
            }
            RtaMsg::TopN(entries) => {
                let n = (entries.len().max(2)) as u64;
                ctx.charge_work(400 + 6 * n * n.ilog2() as u64);
                for (topic, count) in entries {
                    self.ranker.update(topic, count);
                }
                self.emissions += 1;
            }
            _ => {}
        }
    }

    fn host_speedup(&self) -> f64 {
        3.0 // quicksort: compute-bound, gains the most from the host
    }

    fn state_hint_bytes(&self) -> u64 {
        256 * 1024
    }
}

/// Handles to a deployed RTA pipeline.
pub struct RtaDeployment {
    /// Filter ingress per worker node (clients send tuple batches here).
    pub filters: Vec<Address>,
    /// The aggregated ranker.
    pub aggregator: Address,
    /// The topology mapping table.
    pub topo: Topology,
}

/// A stage of the pipeline, for the choices a deployment makes per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Pattern-matching filter (the ingress).
    Filter,
    /// Sliding-window counter.
    Counter,
    /// Per-worker top-n ranker.
    Ranker,
    /// The deployment-wide aggregated ranker.
    Aggregator,
}

/// Deploy the RTA pipeline: one filter/counter/ranker chain per worker node
/// (the paper runs "an RTA worker on each server"), plus one aggregated
/// ranker on the first node, every stage starting on the NIC.
pub fn deploy_rta(c: &mut Cluster, worker_nodes: &[usize]) -> RtaDeployment {
    deploy_pipeline(c, worker_nodes, "rta", |_, logic| (logic, Placement::Nic))
}

/// Deploy the pipeline with actors named `{prefix}-{stage}-{worker}`.
/// `install` is asked once per actor what to register for its stage (the
/// stage's logic as it is, or wrapped) and where it starts.
pub fn deploy_pipeline(
    c: &mut Cluster,
    worker_nodes: &[usize],
    prefix: &str,
    install: impl Fn(Stage, Box<dyn ActorLogic>) -> (Box<dyn ActorLogic>, Placement),
) -> RtaDeployment {
    // Addresses before actors, in registration order.
    let mut filters = Vec::new();
    let mut counter = Vec::new();
    let mut ranker = Vec::new();
    for &node in worker_nodes {
        filters.push(c.reserve_actor(node));
        counter.push(c.reserve_actor(node));
        ranker.push(c.reserve_actor(node));
    }
    let topo = Topology {
        counter,
        ranker,
        aggregator: c.reserve_actor(worker_nodes[0]),
    };
    let mut register = |addr: Address, name: String, stage: Stage, logic: Box<dyn ActorLogic>| {
        let (logic, placement) = install(stage, logic);
        c.register_reserved(addr, &name, logic, placement);
    };
    for (w, &filter) in filters.iter().enumerate() {
        register(
            filter,
            format!("{prefix}-filter-{w}"),
            Stage::Filter,
            Box::new(FilterActor::new(topo.counter[w])),
        );
        register(
            topo.counter[w],
            format!("{prefix}-counter-{w}"),
            Stage::Counter,
            Box::new(CounterActor::new(topo.ranker[w])),
        );
        register(
            topo.ranker[w],
            format!("{prefix}-ranker-{w}"),
            Stage::Ranker,
            Box::new(RankerActor::new(topo.aggregator)),
        );
    }
    register(
        topo.aggregator,
        format!("{prefix}-aggregator"),
        Stage::Aggregator,
        Box::new(RankerActor::aggregator()),
    );
    RtaDeployment {
        filters,
        aggregator: topo.aggregator,
        topo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipipe_nicsim::CN2350;

    #[test]
    fn pipeline_processes_tuple_batches() {
        let mut c = Cluster::builder(CN2350)
            .servers(3)
            .clients(1)
            .seed(0x27A)
            .build();
        let dep = deploy_rta(&mut c, &[0, 1, 2]);
        let wl = RtaWorkload::paper_default(6);
        c.set_client(0, client_gen(dep.filters, 512, wl), 16);
        c.run_for(SimTime::from_ms(10));
        let done = c.completions().count();
        assert!(done > 1_000, "done={done}");
    }
}
