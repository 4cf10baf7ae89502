//! Chord: a full UniStore storage backend, and the baseline for the
//! range-query comparison (experiment E6).
//!
//! The paper (§2) claims: *"P-Grid supports efficient substring search
//! and range queries through its basic infrastructure, where other DHTs
//! require additional structures (e.g., in Chord an additional
//! trie-structure is constructed on top of its ring-based overlay network
//! to support range queries)."* To measure that claim instead of
//! asserting it, this crate implements Chord with:
//!
//! * a 64-bit identifier ring under a **uniform** (order-destroying)
//!   hash, finger tables and O(log N) greedy routing ([`node`]),
//! * exact-key lookups, inserts and identity deletes,
//! * range queries via
//!   * **broadcast** — El-Ansary's finger-tree flooding reaching all N
//!     nodes (what plain Chord must do), and
//!   * a **bucket index** — the "additional structure": keys are
//!     *also* stored under the hash of their fixed-depth order-preserving
//!     prefix, so a range decomposes into consecutive buckets, each
//!     fetched with one O(log N) lookup ([`node`], [`cluster`]).
//!
//! [`ChordNode`] implements the
//! [`Overlay`](unistore_overlay::Overlay) trait ([`overlay`],
//! [`topology`]), so the entire VQL → MQP → adaptive-optimizer stack of
//! the `unistore` crate runs unchanged over this ring — exact lookups
//! through the uniform hash, range/prefix scans through the bucket
//! index — enabling apples-to-apples comparisons on real queries.

pub mod cluster;
pub mod msg;
pub mod node;
pub mod overlay;
pub mod replicate;
pub mod ring;
pub mod store;
pub mod topology;

pub use cluster::{ChordCluster, ChordRangeMode};
pub use msg::ChordMsg;
pub use node::{ChordConfig, ChordNode};
pub use ring::ring_dist;
pub use topology::ChordTopology;
