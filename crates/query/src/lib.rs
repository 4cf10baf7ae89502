//! Query processing for UniStore.
//!
//! Paper §2: *"The algebra supports traditional 'relational' operators
//! (π, σ, ⋈, …) as well as special operators needed to query the
//! distributed triple storage … we extend the set of operators by special
//! operators like similarity operators (e.g., similarity join) and
//! ranking operators (e.g., top-N, skyline). … For each logical operator
//! there are several physical implementations available … The processing
//! of these plans can be described as an extension of the concept of
//! Mutant Query Plans. For each physical operator, and thus, for each
//! query plan, we can determine worst-case guarantees (almost all are
//! logarithmic) and predict exact costs. … resulting in an adaptive
//! query processing approach."*
//!
//! Layout:
//!
//! * [`relation`] — the tabular intermediate representation flowing
//!   through plans (wire-encodable: mutant plans carry their partial
//!   results),
//! * [`eval`] — filter-expression evaluation over rows,
//! * [`logical`] — translation of analyzed VQL into the logical algebra,
//! * [`strategy`] — the physical operator alternatives per logical
//!   operator (scans, joins, similarity),
//! * [`cost`] — the cost model: overlay guarantees + data statistics →
//!   predicted messages/hops/bytes per plan,
//! * [`mqp`] — the Mutant Query Plan tree that travels between peers,
//! * [`rank`] — ORDER BY / top-N, [`skyline`] — skyline (BNL),
//! * [`local`] — a fully local reference engine (oracle for tests and
//!   the executor's per-peer pipeline finisher).

pub mod cost;
pub mod eval;
pub mod local;
pub mod logical;
pub mod mqp;
pub mod rank;
pub mod relation;
pub mod skyline;
pub mod strategy;

pub use cost::{CostModel, CostVector, GlobalStats, StatsDelta, StatsNotice};
pub use local::LocalEngine;
pub use logical::Logical;
pub use mqp::{Coverage, Mqp, MqpNode};
pub use relation::Relation;
pub use strategy::{JoinStrategy, RangeAlgo, ScanStrategy};
