//! # UniStore
//!
//! A reproduction of *"UniStore: Querying a DHT-based Universal
//! Storage"* (Karnstedt, Sattler, Richtarsky, Müller, Hauswirth,
//! Schmidt, John — ICDE 2007): a triple store layered over a structured
//! overlay, queried with VQL, processed as mutant query plans with a
//! cost-based adaptive optimizer.
//!
//! The fastest way in is [`UniCluster`]:
//!
//! ```
//! use unistore::{UniCluster, UniConfig};
//! use unistore_store::{Tuple, Value};
//!
//! let mut cluster = UniCluster::build(16, UniConfig::default(), 42);
//! cluster.load(vec![
//!     Tuple::new("a1").with("name", Value::str("alice")).with("age", Value::Int(28)),
//!     Tuple::new("a2").with("name", Value::str("bob")).with("age", Value::Int(45)),
//! ]);
//! let origin = cluster.random_node();
//! let out = cluster.query(origin, "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g < 40}").unwrap();
//! assert_eq!(out.relation.len(), 1);
//! ```
//!
//! Layers (paper Fig. 1): `unistore-simnet` (network) →
//! `unistore-overlay` (the DHT abstraction) with two interchangeable
//! backends, `unistore-pgrid` (P-Grid, the paper's native substrate) and
//! `unistore-chord` (ring + order-preserving bucket index) →
//! `unistore-store` (triple storage) → `unistore-vql` + `unistore-query`
//! (VQL, algebra, cost model, mutant plans) → this crate (the node
//! gluing all layers — generic over the backend, see [`backends`] — the
//! cluster driver, and a live threaded runtime).

pub mod backends;
pub mod cluster;
pub mod config;
pub mod live;
pub mod msg;
pub mod node;
pub mod stats;

pub use backends::{chord_config, ChordLiveCluster, ChordOverlay, ChordUniCluster};
pub use cluster::{QueryOutcome, UniCluster};
pub use config::{BackoffPolicy, PlanMode, ScanPref, UniConfig};
pub use msg::{QueryMsg, UniEvent, UniMsg};
pub use node::UniNode;
pub use unistore_query::Coverage;
