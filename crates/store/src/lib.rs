//! The UniStore triple layer.
//!
//! Paper §2: *"we follow the idea of the universal relation model …
//! we store data vertically, similar to the idea of RDF. Each tuple
//! `(OID, v1, …, vn)` of a relation `R(A1, …, An)` is stored as n triples
//! `(OID, Ai, vi)` … By default, we index each triple on the OID,
//! `Ai#vi`, and `vi`."* (Fig. 2.)
//!
//! This crate provides everything between raw DHT keys and the query
//! layer:
//!
//! * [`value`] — typed values (string / integer / float) with
//!   order-preserving key encodings,
//! * [`triple`] — the triple model and its [`unistore_util::item::Item`]
//!   implementation; a list of triples crosses the wire with each
//!   attribute name once and its string values front-coded,
//! * [`tuple`](mod@tuple) — universal-relation (de)composition: tuples ↔ triples,
//! * [`index`] — the key derivation for all four indexes (OID, A#v, v,
//!   q-gram), i.e. the paper's Fig. 2 placement,
//! * [`qgram`] — q-gram extraction, the count filter and edit distance
//!   (paper ref \[6\]),
//! * [`mapping`] — schema-mapping triples and query rewriting (the
//!   paper's "simple kind of schema mappings" metadata),
//! * [`local`] — a purely local reference store used as test oracle.

pub mod index;
mod list;
pub mod local;
pub mod mapping;
pub mod qgram;
pub mod triple;
pub mod tuple;
pub mod value;

pub use index::{IndexKind, TripleKeys};
pub use mapping::{Mapping, MappingSet};
pub use qgram::{edit_distance, qgrams, QGRAM_Q};
pub use triple::{Oid, Triple};
pub use tuple::Tuple;
pub use value::Value;
