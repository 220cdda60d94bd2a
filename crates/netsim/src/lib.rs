//! Network substrate for the iPipe evaluation testbed (§2.2.1/§5.1): nodes
//! attached to a ToR switch by 10/25GbE links, with Ethernet framing
//! overheads and per-port serialization, plus the packet descriptor type that
//! flows between nodes.
//!
//! The model is a *timing oracle*: experiments own the event loop and ask
//! [`NetModel::begin_transfer`] and [`NetModel::finish_transfer`] when a
//! packet would arrive; the oracle accounts for egress/ingress port
//! occupancy, serialization, switch latency and propagation. This mirrors how the paper's testbed behaves at the level
//! that matters for the evaluation (packet-rate arithmetic and queueing),
//! without simulating individual symbols.

pub mod fault;
pub mod net;
pub mod packet;

pub use fault::{DropReason, FaultPlan};
pub use net::{NetModel, TxPhase};
pub use packet::{NodeId, Packet, PacketKind};
