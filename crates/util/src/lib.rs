//! Common substrate for the UniStore workspace.
//!
//! This crate collects the small, dependency-free building blocks shared by
//! every other crate in the reproduction of *UniStore: Querying a DHT-based
//! Universal Storage* (Karnstedt et al., ICDE 2007):
//!
//! * [`bits`] — variable-length bit strings ([`bits::BitPath`]) used for
//!   P-Grid trie paths and key prefixes,
//! * [`bloom`] — wire-encodable Bloom filters carrying semi-join keys to
//!   the peers responsible for the data,
//! * [`ophash`] — the order-preserving encodings that P-Grid relies on for
//!   range and prefix queries,
//! * [`keys`] — the 64-bit key space combining attribute prefixes with
//!   order-preserving value encodings,
//! * [`fxhash`] — a fast, non-cryptographic hasher for internal hash maps,
//! * [`zipf`] — skewed-distribution samplers used by the workload generator
//!   and the load-balancing experiments,
//! * [`stats`] — descriptive statistics (percentiles, Gini coefficient,
//!   equi-width histograms) used by the cost model and the bench harness,
//! * [`wire`] — a compact binary codec used to serialize messages and
//!   mutant query plans, providing honest byte-size accounting,
//! * [`rng`] — deterministic seed derivation so that every experiment is
//!   reproducible from a single master seed.

pub mod bits;
pub mod bloom;
pub mod compact;
pub mod fxhash;
pub mod interval;
pub mod item;
pub mod keys;
pub mod ophash;
pub mod rng;
pub mod stats;
pub mod wire;
pub mod zipf;

pub use bits::BitPath;
pub use bloom::{BloomFilter, FieldHashColumns, ItemFilter};
pub use compact::{intern, CompactStr};
pub use fxhash::{FxHashMap, FxHashSet};
pub use keys::Key;
