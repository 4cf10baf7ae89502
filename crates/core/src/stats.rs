//! Statistics distribution.
//!
//! The paper bases its cost model on "the characteristics of the used
//! overlay system and the actual data distribution", gossiped between
//! peers as statistics metadata. The reproduction splits this into two
//! paths (DESIGN.md §"Statistics distribution"):
//!
//! * **bulk**: after a driver-side load, [`build_cost_model`] scans the
//!   dataset once and hands every node the same snapshot;
//! * **incremental**: routed writes fold into the snapshots as
//!   [`unistore_query::StatsDelta`]s — O(delta) per write at the
//!   driver, disseminated in-band to the nodes on the stats-refresh
//!   tick ([`crate::UniConfig::stats_refresh`]) as one
//!   [`unistore_query::StatsNotice`] per flush, so long-running nodes
//!   converge to fresh statistics without restart or rescan.
//!
//! The one statistic with per-object state, the distinct-OID count,
//! is kept out of the nodes' snapshots: its refcount map is split into
//! [`OID_SHARDS`](unistore_query::cost::oids::OID_SHARDS) shards by fingerprint prefix, each held by one home
//! peer and updated by the flushes' [`unistore_query::cost::OidPiece`]s.

use std::sync::Arc;

use unistore_overlay::Overlay;
use unistore_query::cost::NetParams;
use unistore_query::{CostModel, GlobalStats};
use unistore_simnet::{NodeId, SimTime};
use unistore_store::index::oid_key;
use unistore_store::{Oid, Triple};
use unistore_util::Key;

/// The fixed key of OID shard `shard`: where the OID index places a
/// reserved object name, hashed like any other.
pub fn oid_shard_key(shard: u8) -> Key {
    oid_key(&Oid::new(&format!("\u{0}stats/oids/{shard}")))
}

/// The home of the OID shard placed at `key`, as a member of the key's
/// replica group sees it: the group's lowest node id. `None` from a
/// peer outside the group.
pub fn oid_shard_home<O: Overlay>(member: &O, key: Key) -> Option<NodeId> {
    member.replica_group(key).first().copied()
}

/// Builds the shared cost model for a cluster.
pub fn build_cost_model(
    triples: &[Triple],
    n_peers: usize,
    n_leaves: usize,
    replication: usize,
    expected_hop: SimTime,
) -> Arc<CostModel> {
    let net = NetParams {
        n_peers: n_peers as f64,
        n_leaves: n_leaves as f64,
        replication: replication as f64,
        hop_ms: expected_hop.as_millis_f64(),
    };
    Arc::new(CostModel::new(GlobalStats::build(triples, net)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unistore_query::cost::oids::OID_SHARDS;
    use unistore_store::Value;

    #[test]
    fn oid_shards_have_distinct_keys_in_the_oid_index() {
        let keys: Vec<Key> = (0..OID_SHARDS).map(oid_shard_key).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(unistore_store::IndexKind::of_key(*k), unistore_store::IndexKind::Oid);
            assert!(!keys[..i].contains(k), "shard {i} shares a key");
        }
    }

    #[test]
    fn model_reflects_cluster_shape() {
        let triples =
            vec![Triple::new("a", "x", Value::Int(1)), Triple::new("b", "x", Value::Int(2))];
        let m = build_cost_model(&triples, 64, 32, 2, SimTime::from_millis(40));
        assert_eq!(m.stats.net.n_peers, 64.0);
        assert_eq!(m.stats.net.n_leaves, 32.0);
        assert_eq!(m.stats.net.log_n(), 5.0);
        assert_eq!(m.stats.net.hop_ms, 40.0);
        assert_eq!(m.stats.total, 2.0);
    }
}
