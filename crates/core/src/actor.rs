//! The actor programming model (§3.1).
//!
//! An actor is a computation agent with self-contained private state, an
//! `init_handler`/`exec_handler` pair, and a mailbox of asynchronous
//! messages. Actors never share memory; all interaction is message passing.

use crate::dmo::DmoTable;
use ipipe_nicsim::accel::AccelSpec;
use ipipe_sim::{DetRng, SimTime};
use std::any::Any;

/// Actor identifier, unique within a cluster.
pub type ActorId = u32;

/// A cluster-wide actor address: (node, actor). The `actor_tbl` each actor
/// carries (§3.1) maps well-known roles to these addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Address {
    /// Node index within the cluster.
    pub node: u16,
    /// Actor on that node.
    pub actor: ActorId,
}

/// An opaque, typed message payload. The runtime is payload-agnostic;
/// applications downcast on receipt.
pub type Payload = Option<Box<dyn Any>>;

/// A request dispatched to an actor — one incoming message plus the metadata
/// the scheduler and bookkeeper need.
#[derive(Debug)]
pub struct Request {
    /// Target actor.
    pub actor: ActorId,
    /// Flow label (drives host-side flow steering).
    pub flow: u64,
    /// Wire size of the carrying packet, bytes.
    pub wire_size: u32,
    /// When the request entered this node's NIC (queueing delay baseline).
    pub arrived: SimTime,
    /// Originating address, for replies. `None` for locally generated work.
    pub reply_to: Option<Address>,
    /// Client-assigned id threading through the reply path.
    pub token: u64,
    /// Typed application payload.
    pub payload: Payload,
}

impl Request {
    /// Downcast the payload to a concrete type, panicking with a clear
    /// message on mismatch (an application wiring bug).
    pub fn payload_as<T: 'static>(&mut self) -> Box<T> {
        self.payload
            .take()
            .expect("request payload already taken")
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("payload type mismatch for actor {}", self.actor))
    }
}

/// A message an actor asked the runtime to emit: to another actor or, as a
/// reply, to a client's address. The runtime routes it by its destination.
#[derive(Debug)]
pub struct Emit {
    /// Destination address (same node or remote — the runtime routes).
    pub dst: Address,
    /// Flow label for the carrying packet; a reply's is its token.
    pub flow: u64,
    /// Payload size on the wire.
    pub wire_size: u32,
    /// Token threaded through (a reply's identifies the original request).
    pub token: u64,
    /// Typed payload.
    pub payload: Payload,
    /// Hold the message for this long before routing it — the actor
    /// timer facility (heartbeats, timeouts). Zero sends immediately.
    pub after: SimTime,
}

/// Execution-side context handed to actor handlers: cost metering, message
/// emission, DMO access, accelerator invocation (Table 4's utility APIs).
pub struct ActorCtx<'a> {
    /// Simulated time at handler entry.
    now: SimTime,
    /// Actor being executed.
    actor: ActorId,
    /// This node's index.
    node: u16,
    /// Accumulated modeled execution cost of this invocation.
    charged: SimTime,
    /// Messages to route after the handler returns.
    outbox: Vec<Emit>,
    /// The node's object table.
    dmo: &'a mut DmoTable,
    /// Deterministic per-actor randomness.
    rng: &'a mut DetRng,
}

impl<'a> ActorCtx<'a> {
    /// Construct a context (runtime-internal).
    pub fn new(
        now: SimTime,
        actor: ActorId,
        node: u16,
        dmo: &'a mut DmoTable,
        rng: &'a mut DetRng,
    ) -> ActorCtx<'a> {
        ActorCtx {
            now,
            actor,
            node,
            charged: SimTime::ZERO,
            outbox: Vec::new(),
            dmo,
            rng,
        }
    }

    /// Collect this invocation's emits into `outbox`, an emptied vector the
    /// runtime reuses so that a handler that emits does not allocate one.
    pub fn with_outbox(mut self, outbox: Vec<Emit>) -> ActorCtx<'a> {
        debug_assert!(outbox.is_empty(), "a reused outbox must be empty");
        self.outbox = outbox;
        self
    }

    /// Simulated time at handler entry.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The executing actor's id.
    pub fn actor_id(&self) -> ActorId {
        self.actor
    }

    /// The node this handler runs on.
    pub fn node(&self) -> u16 {
        self.node
    }

    /// Charge modeled execution time to this invocation.
    pub fn charge(&mut self, t: SimTime) {
        self.charged += t;
    }

    /// Charge `nanos` ns of work to this invocation, exactly as
    /// [`ActorCtx::charge`] would. NIC execution never rescales it; host
    /// execution divides the invocation's whole charge, this included, by
    /// the actor's [`ActorLogic::host_speedup`].
    pub fn charge_work(&mut self, nanos: u64) {
        self.charged += SimTime::from_ns(nanos);
    }

    /// Synchronously invoke a hardware accelerator with the given batch size;
    /// the core waits for completion (§2.2.3).
    pub fn invoke_accel(&mut self, accel: &AccelSpec, batch: u32) {
        self.charged += accel.latency(batch);
    }

    /// Total charged so far.
    pub fn charged(&self) -> SimTime {
        self.charged
    }

    /// Deterministic randomness for the handler.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// The node's DMO table, scoped to this actor for isolation checks.
    pub fn dmo(&mut self) -> crate::dmo::ActorDmo<'_> {
        self.dmo.scoped(self.actor)
    }

    /// Discard the DMO traffic accumulated so far in this invocation so it
    /// is not charged as execution time. Used for object *hand-offs* (e.g.
    /// the Memtable actor migrating its object to the host at a minor
    /// compaction, §4) where the transfer happens asynchronously over the
    /// ring rather than on the executing core.
    pub fn waive_dmo_traffic(&mut self) {
        let _ = self.dmo.take_traffic();
    }

    /// Send an asynchronous message to another actor.
    pub fn send(&mut self, dst: Address, flow: u64, wire_size: u32, token: u64, payload: Payload) {
        self.send_after(SimTime::ZERO, dst, flow, wire_size, token, payload);
    }

    /// Send a message after a delay — the timer primitive. An actor arms a
    /// timeout or periodic tick by delay-sending to itself; the runtime
    /// routes the message when the delay expires.
    pub fn send_after(
        &mut self,
        delay: SimTime,
        dst: Address,
        flow: u64,
        wire_size: u32,
        token: u64,
        payload: Payload,
    ) {
        self.outbox.push(Emit {
            dst,
            flow,
            wire_size,
            token,
            payload,
            after: delay,
        });
    }

    /// Reply to the client that originated `req` (no-op with a debug panic if
    /// the request has no reply address).
    pub fn reply(&mut self, req: Request, wire_size: u32, payload: Payload) {
        let Some(dst) = req.reply_to else {
            debug_assert!(false, "reply() on a request with no reply_to");
            return;
        };
        self.reply_to(dst, wire_size, req.token, payload);
    }

    /// Reply toward an explicit client address, flow-labelled by its token.
    pub fn reply_to(&mut self, dst: Address, wire_size: u32, token: u64, payload: Payload) {
        self.send(dst, token, wire_size, token, payload);
    }

    /// Consume the context, returning (charged cost, outbox).
    pub fn finish(self) -> (SimTime, Vec<Emit>) {
        (self.charged, self.outbox)
    }
}

/// Application logic of one actor: the `init_handler` and `exec_handler` of
/// §3.1. State lives inside the implementing type and/or in DMOs.
pub trait ActorLogic {
    /// One-time state initialization (allocate DMOs etc.).
    fn init(&mut self, _ctx: &mut ActorCtx<'_>) {}

    /// Handle one incoming message.
    fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request);

    /// Relative speed of a host core executing this actor versus a NIC core.
    /// Memory-bound actors should report lower values (implication I3).
    /// The runtime uses this when the actor runs host-side.
    fn host_speedup(&self) -> f64 {
        2.5
    }

    /// Bytes of private DMO state this actor expects to hold; used to size
    /// its region (§3.3) and to cost migration (Fig 18).
    fn state_hint_bytes(&self) -> u64 {
        64 * 1024
    }

    /// Whether this actor must stay on the host (e.g. it touches persistent
    /// storage — the SSTable/compaction/logging actors of §4).
    fn host_pinned(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_charging_and_outbox() {
        let mut dmo = DmoTable::new(crate::dmo::Side::Nic);
        let mut rng = DetRng::new(1);
        let mut ctx = ActorCtx::new(SimTime::from_us(5), 7, 0, &mut dmo, &mut rng);
        assert_eq!(ctx.now(), SimTime::from_us(5));
        assert_eq!(ctx.actor_id(), 7);
        ctx.charge(SimTime::from_us(2));
        ctx.charge_work(500);
        let dst = Address { node: 1, actor: 9 };
        ctx.send(dst, 3, 128, 42, None);
        ctx.reply_to(Address { node: 2, actor: 0 }, 64, 43, None);
        let (cost, outbox) = ctx.finish();
        assert_eq!(cost, SimTime::from_ns(2500));
        assert_eq!(outbox.len(), 2);
        assert_eq!(
            (outbox[0].dst, outbox[0].flow, outbox[0].token),
            (dst, 3, 42)
        );
        assert_eq!(
            (outbox[1].flow, outbox[1].token),
            (43, 43),
            "a reply's flow is its token"
        );
    }

    #[test]
    fn ctx_accel_invocation_charges_latency() {
        let mut dmo = DmoTable::new(crate::dmo::Side::Nic);
        let mut rng = DetRng::new(1);
        let mut ctx = ActorCtx::new(SimTime::ZERO, 1, 0, &mut dmo, &mut rng);
        ctx.invoke_accel(&ipipe_nicsim::accel::MD5, 1);
        assert_eq!(ctx.charged(), SimTime::from_us(5));
        ctx.invoke_accel(&ipipe_nicsim::accel::MD5, 32);
        assert_eq!(ctx.charged(), SimTime::from_us(8));
    }

    #[test]
    fn request_payload_downcast() {
        let mut req = Request {
            actor: 1,
            flow: 0,
            wire_size: 0,
            arrived: SimTime::ZERO,
            reply_to: None,
            token: 0,
            payload: Some(Box::new(String::from("hello"))),
        };
        let s = req.payload_as::<String>();
        assert_eq!(*s, "hello");
    }

    #[test]
    #[should_panic(expected = "payload type mismatch")]
    fn request_payload_wrong_type_panics() {
        let mut req = Request {
            actor: 3,
            flow: 0,
            wire_size: 0,
            arrived: SimTime::ZERO,
            reply_to: None,
            token: 0,
            payload: Some(Box::new(17u32)),
        };
        let _ = req.payload_as::<String>();
    }
}
