//! Hardware models for Multicore SoC SmartNICs and their host servers.
//!
//! The paper (§2) decomposes a SmartNIC into four architectural components;
//! this crate models each of them, calibrated against the paper's own
//! characterization study:
//!
//! * **traffic control** — [`traffic`]: per-packet forwarding costs, the
//!   hardware traffic manager's shared-queue abstraction (Figs 2–5);
//! * **computing units** — [`cpu`] (core timing model), [`accel`]
//!   (domain-specific accelerators, Table 3) and [`crypto`] (bit-real
//!   software implementations of the crypto primitives the accelerators
//!   compute);
//! * **onboard memory** — [`mem`]: the memory hierarchy of Table 2 plus a
//!   set-associative cache simulator that produces MPKI for real access
//!   traces;
//! * **host communication** — [`dma`]: blocking/non-blocking DMA, the PCIe
//!   link, and RDMA verbs (Figs 7–10), and [`host`]: host-side DPDK/RDMA
//!   messaging costs (Fig 6).
//!
//! Every calibration constant lives in [`spec`] with a comment naming the
//! figure or table it was fitted to.

#![deny(clippy::cast_possible_truncation)]

pub mod accel;
pub mod cpu;
pub mod crypto;
pub mod dma;
pub mod dse;
pub mod host;
pub mod mem;
pub mod spec;
pub mod traffic;

pub use spec::{NicKind, NicSpec, BLUEFIELD_1M332A, CN2350, CN2360, HOST_XEON, STINGRAY_PS225};
