//! Tunables of the overlay.

use unistore_simnet::SimTime;

/// Static configuration shared by every peer of an overlay instance.
#[derive(Clone, Debug)]
pub struct PGridConfig {
    /// References kept per routing level (fault tolerance; P-Grid keeps
    /// several and routes through a random one to spread load).
    pub refs_per_level: usize,
    /// Replica group size per trie leaf.
    pub replication: usize,
    /// Period of the maintenance round, the peer's one periodic chain
    /// outside bootstrap: table exchanges with a random reference and a
    /// random replica that also probe them and repair the replica.
    pub maintenance_interval: SimTime,
    /// How long a requester waits before declaring a query failed.
    pub query_timeout: SimTime,
    /// How many times the origin re-issues a timed-out lookup / insert /
    /// delete before reporting failure. Each retry re-routes through a
    /// fresh random reference, avoiding the previous first hop when an
    /// alternative exists — this is what makes the multiple
    /// references-per-level actually mask crashed peers (paper §2).
    pub op_retries: u32,
    /// Bootstrap protocol: number of locally stored items above which a
    /// peer is willing to split its path during a pairwise exchange.
    pub split_threshold: usize,
    /// Bootstrap protocol: mean delay between initiated exchanges.
    pub exchange_interval: SimTime,
    /// Maximum trie depth (bounded by the 64-bit key space).
    pub max_depth: u8,
}

impl Default for PGridConfig {
    fn default() -> Self {
        PGridConfig {
            refs_per_level: 3,
            replication: 1,
            maintenance_interval: SimTime::from_secs(30),
            query_timeout: SimTime::from_secs(10),
            op_retries: 2,
            split_threshold: 8,
            exchange_interval: SimTime::from_secs(1),
            max_depth: 40,
        }
    }
}

impl PGridConfig {
    /// Configuration with `r`-fold replication.
    pub fn with_replication(mut self, r: usize) -> Self {
        assert!(r >= 1, "replication factor must be at least 1");
        self.replication = r;
        self
    }

    /// Configuration with `k` references per routing level.
    pub fn with_refs_per_level(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one reference per level");
        self.refs_per_level = k;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let c = PGridConfig::default().with_replication(3).with_refs_per_level(5);
        assert_eq!(c.replication, 3);
        assert_eq!(c.refs_per_level, 5);
    }

    #[test]
    #[should_panic]
    fn zero_replication_rejected() {
        let _ = PGridConfig::default().with_replication(0);
    }
}
