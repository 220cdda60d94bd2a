//! The Table 4 runtime API, under the paper's C-style names.
//!
//! The framework's idiomatic Rust surface lives on [`crate::rt::Cluster`],
//! [`crate::actor::ActorCtx`] and [`crate::dmo::ActorDmo`]; this module
//! exposes the same operations under the exact names of Appendix B.1's
//! Table 4, so code written against the paper's API reads one-to-one:
//!
//! | Table 4 | here |
//! |---|---|
//! | `actor_create` | [`actor_create`]: the actor's address, before it exists |
//! | `actor_register` | [`actor_register`]: install its handlers at that address |
//! | `actor_init` | runs automatically at registration |
//! | `actor_delete` | no call: the isolation watchdog deletes an actor (§3.4) |
//! | `actor_migrate` | [`actor_migrate`] |
//! | `dmo_malloc` / `dmo_free` | [`dmo_malloc`] / [`dmo_free`] |
//! | `dmo_mmset` / `dmo_mmcpy` / `dmo_mmmove` | [`dmo_mmset`] / [`dmo_mmcpy`] / [`dmo_mmmove`] |
//! | `msg_init` / `msg_read` / `msg_write` | [`msg_init`] / [`msg_read`] / [`msg_write`] |
//! | `nstack_hdr_cap` / `nstack_get_wqe` | [`nstack_hdr_cap`] / [`nstack_get_wqe`] |

use crate::actor::{ActorLogic, Address};
use crate::dmo::{ActorDmo, DmoError, ObjectId};
use crate::ring::{IoChannel, RingBuffer, RingError};
use crate::rt::{Cluster, Placement};

/// `actor_create`: allocate an actor on `node` and return its address, so
/// that peers created alongside it can be built knowing it.
pub fn actor_create(cluster: &mut Cluster, node: usize) -> Address {
    cluster.reserve_actor(node)
}

/// `actor_register`: install the handlers of a created actor into the
/// runtime. Its `init_handler` runs immediately (Table 4's `actor_init`).
pub fn actor_register(
    cluster: &mut Cluster,
    addr: Address,
    name: &str,
    logic: Box<dyn ActorLogic>,
    placement: Placement,
) {
    cluster.register_reserved(addr, name, logic, placement);
}

/// `actor_migrate`: begin a push migration of `addr` to the host.
pub fn actor_migrate(cluster: &mut Cluster, addr: Address) -> bool {
    cluster.force_migrate(addr)
}

/// `dmo_malloc`: allocate a distributed memory object in the actor's region.
pub fn dmo_malloc(dmo: &mut ActorDmo<'_>, size: u64) -> Result<ObjectId, DmoError> {
    dmo.malloc(size)
}

/// `dmo_free`: release an object.
pub fn dmo_free(dmo: &mut ActorDmo<'_>, obj: ObjectId) -> Result<(), DmoError> {
    dmo.free(obj)
}

/// `dmo_mmset`: fill `len` bytes at `offset` with `value`.
pub fn dmo_mmset(
    dmo: &mut ActorDmo<'_>,
    obj: ObjectId,
    offset: u64,
    value: u8,
    len: u64,
) -> Result<(), DmoError> {
    dmo.memset(obj, offset, value, len)
}

/// `dmo_mmcpy`: copy between two objects of the same actor.
pub fn dmo_mmcpy(
    dmo: &mut ActorDmo<'_>,
    src: ObjectId,
    src_off: u64,
    dst: ObjectId,
    dst_off: u64,
    len: u64,
) -> Result<(), DmoError> {
    dmo.memcpy(src, src_off, dst, dst_off, len)
}

/// `dmo_mmmove`: overlap-tolerant move within one object. (The table's
/// object-to-object form is `dmo_mmcpy`; the overlapping case only arises
/// within a single object.)
pub fn dmo_mmmove(
    dmo: &mut ActorDmo<'_>,
    obj: ObjectId,
    src_off: u64,
    dst_off: u64,
    len: u64,
) -> Result<(), DmoError> {
    // ActorDmo does not expose memmove directly; emulate via a bounce copy
    // through the same object (the underlying table handles overlap).
    let data = dmo.read(obj, src_off, len)?;
    dmo.write(obj, dst_off, &data)
}

/// `msg_init`: create a remote message I/O channel of `capacity` bytes per
/// direction.
pub fn msg_init(capacity: u64) -> IoChannel {
    IoChannel::new(capacity)
}

/// `msg_write`: push a message into a ring.
pub fn msg_write(ring: &mut RingBuffer, payload: &[u8]) -> Result<(), RingError> {
    ring.push(payload)
}

/// `msg_read`: poll a ring for the next message (the `synced` flag reports a
/// lazy head-pointer update to the producer, §3.5).
pub fn msg_read(ring: &mut RingBuffer) -> Result<Option<(Vec<u8>, bool)>, RingError> {
    ring.pop()
}

/// `nstack_hdr_cap`: build the L2/L3/L4 headers for a WQE. Fails with a
/// typed [`crate::nstack::CodecError`] when the payload exceeds what the
/// 16-bit IPv4 `total_len` field can declare.
pub fn nstack_hdr_cap(
    h: crate::nstack::WqeHeader,
) -> Result<[u8; crate::nstack::HEADER_BYTES], crate::nstack::CodecError> {
    crate::nstack::build_headers(h)
}

/// `nstack_get_wqe`: parse a received frame back into WQE metadata.
pub fn nstack_get_wqe(frame: &[u8]) -> Option<crate::nstack::WqeHeader> {
    crate::nstack::parse_headers(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{ActorCtx, Request};
    use crate::dmo::{DmoTable, Side};
    use crate::prelude::*;
    use ipipe_nicsim::CN2350;

    struct Echo;
    impl ActorLogic for Echo {
        fn exec(&mut self, ctx: &mut ActorCtx<'_>, req: Request) {
            ctx.charge(SimTime::from_us(1));
            ctx.reply(req, 64, None);
        }
    }

    #[test]
    fn paper_style_program() {
        // The quickstart written against Table 4 names.
        let mut cluster = Cluster::builder(CN2350)
            .servers(1)
            .clients(1)
            .seed(1)
            .build();
        let echo = actor_create(&mut cluster, 0);
        actor_register(&mut cluster, echo, "echo", Box::new(Echo), Placement::Nic);
        cluster.run_closed_loop(echo, 8, 256, SimTime::from_ms(2));
        assert!(cluster.completions().count() > 100);
        assert!(actor_migrate(&mut cluster, echo));
    }

    #[test]
    fn dmo_calls_roundtrip() {
        let mut t = DmoTable::new(Side::Nic, 0);
        t.register_region(1, 1 << 16);
        let mut dmo = t.scoped(1);
        let a = dmo_malloc(&mut dmo, 64).unwrap();
        let b = dmo_malloc(&mut dmo, 64).unwrap();
        dmo_mmset(&mut dmo, a, 0, 0x42, 64).unwrap();
        dmo_mmcpy(&mut dmo, a, 0, b, 0, 32).unwrap();
        assert_eq!(dmo.read(b, 0, 32).unwrap(), vec![0x42; 32]);
        dmo.write(a, 0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        dmo_mmmove(&mut dmo, a, 0, 4, 8).unwrap();
        assert_eq!(dmo.read(a, 4, 8).unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        dmo_free(&mut dmo, a).unwrap();
        dmo_free(&mut dmo, b).unwrap();
    }

    #[test]
    fn msg_calls_roundtrip() {
        let mut ch = msg_init(1024);
        msg_write(&mut ch.to_host, b"from nic").unwrap();
        let (m, _) = msg_read(&mut ch.to_host).unwrap().unwrap();
        assert_eq!(m, b"from nic");
        assert_eq!(msg_read(&mut ch.to_nic).unwrap(), None);
    }

    #[test]
    fn nstack_calls_roundtrip() {
        let h = crate::nstack::WqeHeader {
            src_node: 1,
            dst_node: 2,
            flow: 7,
            actor: 3,
            payload_len: 64,
        };
        let frame = nstack_hdr_cap(h).unwrap();
        assert_eq!(nstack_get_wqe(&frame), Some(h));
        assert!(nstack_hdr_cap(crate::nstack::WqeHeader {
            payload_len: u16::MAX,
            ..h
        })
        .is_err());
    }
}
