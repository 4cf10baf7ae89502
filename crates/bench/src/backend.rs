//! The two storage backends every snapshot sweeps, behind one trait.
//!
//! A snapshot cell is written once as `fn cell<B: Backend>(..)` and run
//! on both backends with [`both_backends!`](crate::both_backends!);
//! what differs between the backends — the row label, the healthy-path
//! configuration and the failure-masking configuration — is what
//! [`Backend`] names.

use unistore::{chord_config, ChordOverlay, UniConfig};
use unistore_chord::ChordMsg;
use unistore_overlay::Overlay;
use unistore_pgrid::{PGridMsg, PGridPeer};
use unistore_simnet::{NodeId, SimTime};
use unistore_store::Triple;
use unistore_util::wire::{BatchOp, OpBatch, Wire};

/// Seed of every experiment and snapshot (ICDE 2007).
pub const SEED: u64 = 20070415;

/// The paper's native substrate.
pub type PGrid = PGridPeer<Triple>;
/// The Chord ring with its auxiliary bucket index.
pub type Chord = ChordOverlay;

/// A storage backend the snapshots run the full stack on.
pub trait Backend: Overlay<Item = Triple> {
    /// The `backend` label of this backend's snapshot rows.
    const LABEL: &'static str;

    /// The healthy-path configuration: periodic overlay traffic off, so
    /// cost attribution is exact.
    fn config() -> UniConfig<Self::Config>;

    /// The failure-masking configuration of the fault and scale
    /// campaigns: replicated data, liveness probing every `probe`,
    /// replica anti-entropy every `anti_entropy` (P-Grid does both in one
    /// round, every `min(probe, anti_entropy)`), a 30 s query deadline
    /// over 8 s overlay operations.
    fn resilient(probe: SimTime, anti_entropy: SimTime) -> UniConfig<Self::Config>;

    /// Live records in this peer's store (the hot-peer census).
    fn records(&self) -> usize;

    /// The op lists of the messages this backend injects for `batch`:
    /// their encoded bytes, and the ops they carry.
    fn injected_ops(batch: &OpBatch<Triple>) -> (usize, Vec<BatchOp>);
}

impl Backend for PGrid {
    const LABEL: &'static str = "P-Grid";

    fn config() -> UniConfig {
        UniConfig::default()
    }

    fn resilient(probe: SimTime, anti_entropy: SimTime) -> UniConfig {
        let mut cfg =
            UniConfig::default().with_replication(3).with_maintenance(probe, anti_entropy);
        cfg.overlay.refs_per_level = 4;
        cfg.query_timeout = SimTime::from_secs(30);
        cfg.overlay.query_timeout = SimTime::from_secs(8);
        cfg
    }

    fn records(&self) -> usize {
        self.store().len()
    }

    fn injected_ops(batch: &OpBatch<Triple>) -> (usize, Vec<BatchOp>) {
        let (mut bytes, mut ops) = (0, Vec::new());
        for (_, msg) in Self::batch_msgs(&Default::default(), &mut || 0, batch, NodeId(0)) {
            if let PGridMsg::OpBatch { batch, .. } = msg {
                bytes += batch.ops.wire_size();
                ops.extend(batch.ops);
            }
        }
        (bytes, ops)
    }
}

impl Backend for Chord {
    const LABEL: &'static str = "Chord+buckets";

    fn config() -> UniConfig<Self::Config> {
        chord_config()
    }

    fn resilient(probe: SimTime, anti_entropy: SimTime) -> UniConfig<Self::Config> {
        let mut cfg = chord_config();
        cfg.overlay.replicate = true;
        cfg.overlay.ping_interval = probe;
        cfg.overlay.anti_entropy_interval = anti_entropy;
        cfg.query_timeout = SimTime::from_secs(30);
        cfg.overlay.query_timeout = SimTime::from_secs(8);
        cfg
    }

    fn records(&self) -> usize {
        self.store().len()
    }

    fn injected_ops(batch: &OpBatch<Triple>) -> (usize, Vec<BatchOp>) {
        let (mut bytes, mut ops) = (0, Vec::new());
        for (_, msg) in Self::batch_msgs(&Default::default(), &mut || 0, batch, NodeId(0)) {
            if let ChordMsg::OpBatch { ops: chord_ops, .. } = msg {
                bytes += chord_ops.wire_size();
                ops.extend(chord_ops.iter().map(|op| op.op));
            }
        }
        (bytes, ops)
    }
}

/// Both backends' row labels, in snapshot row order.
pub const LABELS: [&str; 2] = [PGrid::LABEL, Chord::LABEL];

/// `B`'s entry of a per-backend parameter table (a floor, a ceiling, a
/// probe period) keyed by [`Backend::LABEL`].
///
/// # Panics
/// Panics when the table has no entry for `B`.
pub fn for_backend<B: Backend, T: Copy>(table: &[(&str, T)]) -> T {
    for_label(table, B::LABEL)
}

/// The entry of a per-backend parameter table for the backend a row's
/// `backend` label names.
///
/// # Panics
/// Panics when the table has no entry for `backend`.
pub fn for_label<T: Copy>(table: &[(&str, T)], backend: &str) -> T {
    match table.iter().find(|(label, _)| *label == backend) {
        Some((_, value)) => *value,
        None => panic!("no entry for backend {backend}"),
    }
}

/// Calls `f::<B>(args..)` for both backends, P-Grid first — the row
/// order of every snapshot — and returns the two results as an array.
#[macro_export]
macro_rules! both_backends {
    ($f:ident($($arg:expr),* $(,)?)) => {
        [
            $f::<$crate::backend::PGrid>($($arg),*),
            $f::<$crate::backend::Chord>($($arg),*),
        ]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label<B: Backend>(suffix: &str) -> String {
        format!("{}{suffix}", B::LABEL)
    }

    #[test]
    fn both_backends_runs_pgrid_first() {
        assert_eq!(
            both_backends!(label("!")),
            ["P-Grid!".to_string(), "Chord+buckets!".to_string()]
        );
    }

    #[test]
    fn per_backend_tables_are_keyed_by_label() {
        let table = [("P-Grid", 80), ("Chord+buckets", 25)];
        assert_eq!((for_backend::<PGrid, _>(&table), for_backend::<Chord, _>(&table)), (80, 25));
    }

    #[test]
    fn resilient_configs_share_deadlines_and_periods() {
        let (probe, ae) = (SimTime::from_secs(10), SimTime::from_secs(30));
        let pg = PGrid::resilient(probe, ae);
        let ch = Chord::resilient(probe, ae);
        assert_eq!(
            (pg.query_timeout, pg.overlay.query_timeout),
            (ch.query_timeout, ch.overlay.query_timeout)
        );
        assert_eq!(pg.overlay.maintenance_interval, probe.min(ae), "one round does both");
        assert_eq!((ch.overlay.ping_interval, ch.overlay.anti_entropy_interval), (probe, ae));
        assert!(pg.overlay.replication == 3 && ch.overlay.replicate);
    }
}
