//! Fixed-work, oracle-checked, per-layer benchmark of the UniStore stack.
//! See `README.md` in this directory and `spec.rs` for every name.

// The repository's clippy.toml bans wall-clock reads outside clock modules
// and the bench harness. This package is a bench harness: timing is its job.
#![allow(clippy::disallowed_methods)]

pub mod alloc;
pub mod churn;
pub mod cli;
pub mod probes;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
