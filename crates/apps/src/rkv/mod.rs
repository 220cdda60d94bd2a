//! Replicated key-value store (§4): Multi-Paxos consensus over a
//! log-structured merge tree.
//!
//! Four actor kinds (paper §4):
//! 1. **consensus** — receives client requests, runs Multi-Paxos;
//! 2. **LSM Memtable** — accumulates writes/deletes, serves fast reads from
//!    a DMO-backed Skip List;
//! 3. **LSM SSTable read** — host-pinned, serves reads that miss the
//!    Memtable;
//! 4. **LSM compaction** — host-pinned, minor/major compactions.

pub mod actors;
pub mod bloom;
pub mod lsm;
pub mod multi;
pub mod paxos;
pub mod placement;
pub mod storm;

pub use actors::{
    audit_rkv_exactly_once, CompactionActor, ConsensusActor, MemtableActor, SstReadActor,
};
pub use bloom::BloomFilter;
pub use lsm::{Levels, SsTable};
pub use multi::{audit_multi_rkv_exactly_once, deploy_multi_rkv, MultiRkv};
pub use paxos::{PaxosMsg, PaxosNode, Role};
pub use placement::RoutingTable;
pub use storm::{CompactionStorm, StormCfg};
