//! Deterministic discrete-event simulation engine for the iPipe reproduction.
//!
//! The engine is deliberately small and dependency-free in spirit (following
//! the smoltcp design ethos: simple, robust, no type tricks). Experiments
//! define their own event type `E`, push timed events into an [`EventQueue`],
//! and drive a plain `while let` loop. Determinism is guaranteed by
//! (time, sequence-number) ordering and by the seeded [`rng::DetRng`].
//!
//! ```
//! use ipipe_sim::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::from_us(5), Ev::Ping(1));
//! q.schedule_at(SimTime::from_us(2), Ev::Ping(0));
//! let (t0, Ev::Ping(a)) = q.pop().unwrap();
//! let (t1, Ev::Ping(b)) = q.pop().unwrap();
//! assert!((a, b) == (0, 1) && t0 < t1);
//! ```

#![deny(clippy::cast_possible_truncation)]

pub mod audit;
pub mod event;
pub mod idmap;
pub mod obs;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod time;

pub use audit::{AuditReport, Violation};
pub use event::{EpochStats, EventQueue, MergePool};
pub use idmap::{DenseMap, IdMap, IdSet};
pub use obs::{Obs, ObsConfig, TraceLevel};
pub use rng::{DetRng, PoissonArrivals, ZipfKeys};
pub use stats::{Ewma, Histogram, TailEstimator, Welford};
pub use time::SimTime;
