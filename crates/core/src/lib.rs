//! # iPipe — an actor framework for offloading distributed applications onto
//! # SmartNICs
//!
//! Rust reproduction of the framework from *"Offloading Distributed
//! Applications onto SmartNICs using iPipe"* (SIGCOMM 2019). The framework
//! runs real application actors over simulated SmartNIC/host hardware (see
//! the `ipipe-nicsim` crate and DESIGN.md).
//!
//! The major pieces, mapped to the paper:
//!
//! | Module | Paper section |
//! |---|---|
//! | [`actor`] — actor structure, handlers, mailboxes | §3.1, Table 4 |
//! | [`bookkeep`] — EWMA execution statistics, µ+3σ tails | §3.2.3 |
//! | [`sched`] — hybrid FCFS + DRR scheduler, core auto-scaling | §3.2, ALG 1/2 |
//! | [`migrate`] — four-phase NIC↔host actor migration | §3.2.5, App. B.3 |
//! | [`dmo`] — distributed memory objects + object tables | §3.3, Fig 12 |
//! | [`skiplist`] — object-ID-indexed Skip List over DMOs | Fig 12b |
//! | [`ring`] — host/NIC message rings with lazy pointer sync | §3.5 |
//! | [`isolate`] — state protection and DoS watchdog | §3.4 |
//! | [`nstack`] — shim networking stack over the traffic manager | App. B.1 |
//! | [`rt`] — the runtime binding actors, scheduler and hardware | §3 |
//!
//! ## Table 4 in Rust
//!
//! Appendix B.1's C-style runtime API, call by call:
//!
//! | Table 4 | here |
//! |---|---|
//! | `actor_create` | [`rt::Cluster::reserve_actor`]: the actor's address, before it exists |
//! | `actor_register` | [`rt::Cluster::register_reserved`] (both at once: [`rt::Cluster::register_actor`]) |
//! | `actor_init` | [`actor::ActorLogic::init`], run at registration |
//! | `actor_delete` | no call: the isolation watchdog deletes an actor (§3.4) |
//! | `actor_migrate` | [`rt::Cluster::force_migrate`] |
//! | `dmo_malloc` / `dmo_free` | [`dmo::ActorDmo::malloc`] / [`dmo::ActorDmo::free`] |
//! | `dmo_mmset` / `dmo_mmcpy` | [`dmo::ActorDmo::memset`] / [`dmo::ActorDmo::memcpy`] |
//! | `dmo_mmmove` | [`dmo::DmoTable::memmove`] (overlap only arises within one object) |
//! | `msg_init` | [`ring::IoChannel::new`] |
//! | `msg_read` / `msg_write` | [`ring::RingBuffer::pop`] / [`ring::RingBuffer::push`] |
//! | `nstack_hdr_cap` / `nstack_get_wqe` | [`nstack::build_headers`] / [`nstack::parse_headers`] |
//!
//! ## Quick example
//!
//! ```
//! use ipipe::prelude::*;
//!
//! struct Echo;
//! impl ActorLogic for Echo {
//!     fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
//!         ctx.charge(SimTime::from_us(2)); // modeled handler cost
//!         ctx.reply(req, 64, None);
//!     }
//! }
//!
//! let mut cluster = Cluster::builder(ipipe_nicsim::CN2350)
//!     .servers(1)
//!     .clients(1)
//!     .build();
//! let echo = cluster.register_actor(0, "echo", Box::new(Echo), Placement::Nic);
//! cluster.run_closed_loop(echo, 16, 512, SimTime::from_ms(5));
//! let done = cluster.completions();
//! assert!(done.count() > 1000);
//! ```

pub mod actor;
pub mod admission;
pub mod bookkeep;
pub mod dmo;
pub mod isolate;
pub mod migrate;
pub mod nstack;
pub mod ring;
pub mod rt;
pub mod sched;
pub mod skiplist;
pub mod tcp;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use crate::actor::{ActorCtx, ActorId, ActorLogic, Address, Payload, Request};
    pub use crate::admission::{AdmissionCfg, ClassCfg};
    pub use crate::dmo::{DmoError, ObjectId};
    pub use crate::rt::{Cluster, ClusterBuilder, Placement};
    pub use crate::sched::SchedConfig;
    pub use ipipe_sim::SimTime;
}
