//! Concrete backend wirings of the generic stack.
//!
//! [`UniCluster`] and [`LiveCluster`] default to the P-Grid
//! backend; this module names the Chord-backed instantiations and
//! provides a ready-to-use configuration for them, so experiments and
//! oracle tests can run the identical VQL → MQP pipeline over both
//! substrates.

use unistore_chord::{ChordConfig, ChordNode};
use unistore_store::Triple;

use crate::cluster::UniCluster;
use crate::config::UniConfig;
use crate::live::LiveCluster;

/// The Chord node type UniStore runs on.
pub type ChordOverlay = ChordNode<Triple>;

/// A simulated UniStore deployment over Chord.
pub type ChordUniCluster = UniCluster<ChordOverlay>;

/// A live threaded UniStore deployment over Chord.
pub type ChordLiveCluster = LiveCluster<ChordOverlay>;

/// Default cluster configuration for the Chord backend: the shared
/// query-layer defaults of [`UniConfig::for_overlay`] over a default
/// ring. (`balanced` is ignored by this backend — `ADAPTS_TO_SAMPLE`
/// is `false`, so drivers never re-plan the ring against a key
/// sample.)
pub fn chord_config() -> UniConfig<ChordConfig> {
    UniConfig::for_overlay(ChordConfig::default())
}
