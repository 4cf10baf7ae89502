//! P-Grid: the trie-structured overlay UniStore is built on.
//!
//! From the paper (§2): *"In P-Grid, nodes are at the leaf level of a
//! virtual binary trie … While nodes incrementally partition the key space
//! during runtime, they keep references to each other to enable
//! prefix-based query routing. A prefix-preserving hash-function assigns
//! data to key partitions respectively nodes."*
//!
//! This crate implements:
//!
//! * trie paths and per-level routing tables with multiple references per
//!   level ([`routing`]),
//! * greedy prefix routing with O(log N) expected hops ([`lookup`]),
//! * **order-preserving key placement**, hence native **range queries** —
//!   both the sequential leaf-walk and the parallel *shower* algorithm
//!   ([`range`]),
//! * replica groups with push replication and hash-tree anti-entropy, giving
//!   the paper's *loose update consistency* [ref 4] ([`replicate`]),
//! * converged-state construction with **data-adaptive load balancing**
//!   (deep trie where data is dense; [`construct`]) as well as the
//!   dynamic pairwise bootstrap protocol of Aberer's original P-Grid
//!   ([`bootstrap`]),
//! * routing-table maintenance under churn ([`maintain`]),
//! * a driver-facing simulation harness ([`cluster`]).

pub mod batch;
pub mod bootstrap;
pub mod cluster;
pub mod config;
pub mod construct;
pub mod item;
pub mod lookup;
pub mod maintain;
pub mod msg;
pub mod overlay;
pub mod peer;
pub mod range;
pub mod replicate;
pub mod routing;

pub use cluster::PGridCluster;
pub use config::PGridConfig;
pub use item::{Entries, Item, LocalStore};
pub use msg::{PGridMsg, QueryId, RangeMode};
pub use overlay::PGridTopology;
pub use peer::PGridPeer;
