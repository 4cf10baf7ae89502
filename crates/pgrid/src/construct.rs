//! Converged-state overlay construction.
//!
//! The bootstrap protocol ([`crate::bootstrap`]) *converges to* a trie
//! whose leaves hold roughly equal data volumes — that is P-Grid's
//! load-balancing invariant under its order-preserving hash (paper §2,
//! ref \[2\]: "a mature load-balancing technique able to deal with nearly
//! arbitrary data skews"). Experiments that are not about construction
//! itself start from that converged state directly:
//!
//! * [`build_balanced`] splits the leaf carrying the most sample keys
//!   until the target leaf count is reached — a deep trie where data is
//!   dense, shallow where it is sparse (balanced storage, skewed depth);
//! * [`build_uniform`] splits breadth-first regardless of data — the
//!   strawman a *non*-balancing order-preserving DHT would produce
//!   (uniform depth, skewed storage). E5 contrasts the two.

use rand::rngs::StdRng;
use rand::Rng;

use unistore_util::{BitPath, Key};

/// Builds data-adaptive leaf paths (P-Grid's balanced, converged state).
///
/// Returns the trie's leaf paths in key order. Splitting stops early if
/// every heavy leaf reached `max_depth` (duplicate-dominated samples).
pub fn build_balanced(sample: &[Key], n_leaves: usize, max_depth: u8) -> Vec<BitPath> {
    assert!(n_leaves >= 1, "need at least one leaf");
    let mut leaves: Vec<(BitPath, Vec<Key>)> = vec![(BitPath::ROOT, sample.to_vec())];
    while leaves.len() < n_leaves {
        // Split the splittable leaf with the most keys.
        let Some(idx) = leaves
            .iter()
            .enumerate()
            .filter(|(_, (p, _))| p.len() < max_depth)
            .max_by_key(|(_, (_, keys))| keys.len())
            .map(|(i, _)| i)
        else {
            break;
        };
        let (path, keys) = leaves.swap_remove(idx);
        let bit_pos = path.len();
        let zero = path.child(false);
        let one = path.child(true);
        let (lo_keys, hi_keys): (Vec<Key>, Vec<Key>) =
            keys.into_iter().partition(|k| !one.is_prefix_of_key(*k));
        let _ = bit_pos;
        leaves.push((zero, lo_keys));
        leaves.push((one, hi_keys));
    }
    let mut paths: Vec<BitPath> = leaves.into_iter().map(|(p, _)| p).collect();
    paths.sort_by_key(|p| p.min_key());
    paths
}

/// Builds a complete (data-oblivious) trie with `n_leaves` leaves by
/// splitting breadth-first. For `n_leaves` not a power of two the last
/// level is partially split.
pub fn build_uniform(n_leaves: usize, max_depth: u8) -> Vec<BitPath> {
    assert!(n_leaves >= 1, "need at least one leaf");
    let mut leaves = vec![BitPath::ROOT];
    while leaves.len() < n_leaves {
        // Split the shortest leaf; ties broken by key order for
        // determinism.
        let idx = leaves
            .iter()
            .enumerate()
            .filter(|(_, p)| p.len() < max_depth)
            .min_by_key(|(_, p)| (p.len(), p.min_key()))
            .map(|(i, _)| i);
        let Some(idx) = idx else { break };
        let path = leaves.swap_remove(idx);
        leaves.push(path.child(false));
        leaves.push(path.child(true));
    }
    leaves.sort_by_key(|p| p.min_key());
    leaves
}

/// Distributes `n_peers` over `leaves.len()` leaves as evenly as
/// possible; returns per-leaf peer-index lists. Peers are dealt round
/// robin so replica-group sizes differ by at most one.
pub fn assign_peers(n_leaves: usize, n_peers: usize) -> Vec<Vec<usize>> {
    assert!(n_leaves >= 1 && n_peers >= n_leaves, "need at least one peer per leaf");
    let mut out = vec![Vec::new(); n_leaves];
    for peer in 0..n_peers {
        out[peer % n_leaves].push(peer);
    }
    out
}

/// A fully planned converged topology, consumable by any cluster builder
/// (the raw P-Grid harness and the UniStore node cluster share this).
#[derive(Clone, Debug)]
pub struct TopologyPlan {
    /// Sorted leaf paths.
    pub leaves: Vec<BitPath>,
    /// Per-peer leaf index.
    pub peer_leaf: Vec<usize>,
    /// Per-peer routing references `(peer index, its path)`.
    pub peer_refs: Vec<Vec<(usize, BitPath)>>,
    /// Per-peer replica lists (peer indices).
    pub peer_replicas: Vec<Vec<usize>>,
    /// Per-leaf peer lists (peer indices).
    pub leaf_peers: Vec<Vec<usize>>,
}

/// Plans a converged overlay: leaves (balanced on `sample` or uniform),
/// peer assignment, routing references and replica groups.
pub fn plan_topology(
    n_peers: usize,
    replication: usize,
    refs_per_level: usize,
    max_depth: u8,
    sample: Option<&[Key]>,
    rng: &mut StdRng,
) -> TopologyPlan {
    assert!(n_peers >= 1);
    let n_leaves = (n_peers / replication.max(1)).max(1);
    let leaves = match sample {
        Some(keys) => build_balanced(keys, n_leaves, max_depth),
        None => build_uniform(n_leaves, max_depth),
    };
    let leaf_peers = assign_peers(leaves.len(), n_peers);
    let mut peer_leaf = vec![0usize; n_peers];
    for (leaf, peers) in leaf_peers.iter().enumerate() {
        for &p in peers {
            peer_leaf[p] = leaf;
        }
    }
    let mut peer_refs = vec![Vec::new(); n_peers];
    let mut peer_replicas = vec![Vec::new(); n_peers];
    for peer in 0..n_peers {
        let path = leaves[peer_leaf[peer]];
        for l in 0..path.len() {
            let prefix = path.prefix(l).child(!path.bit(l));
            for p in sample_subtree_peers(&leaves, &leaf_peers, prefix, refs_per_level, rng) {
                peer_refs[peer].push((p, leaves[peer_leaf[p]]));
            }
        }
        peer_replicas[peer] =
            leaf_peers[peer_leaf[peer]].iter().copied().filter(|&p| p != peer).collect();
    }
    TopologyPlan { leaves, peer_leaf, peer_refs, peer_replicas, leaf_peers }
}

/// Finds the leaf responsible for `key` in a sorted leaf list.
///
/// Leaves produced by the builders partition the key space, so exactly
/// one leaf matches.
pub fn leaf_of(leaves: &[BitPath], key: Key) -> usize {
    debug_assert!(!leaves.is_empty());
    let idx = leaves.partition_point(|p| p.min_key() <= key);
    idx.saturating_sub(1)
}

/// Samples up to `want` distinct peers inside the subtree with prefix
/// `prefix`, drawing from the sorted leaf list / per-leaf peer lists.
pub fn sample_subtree_peers(
    leaves: &[BitPath],
    leaf_peers: &[Vec<usize>],
    prefix: BitPath,
    want: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    // The subtree's leaves form a contiguous run in key order.
    let start = leaves.partition_point(|p| p.max_key() < prefix.min_key());
    let end = leaves.partition_point(|p| p.min_key() <= prefix.max_key());
    if start >= end {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(want);
    let mut tries = 0;
    while out.len() < want && tries < want * 8 {
        tries += 1;
        let leaf = rng.gen_range(start..end);
        if leaf_peers[leaf].is_empty() {
            continue;
        }
        let peer = leaf_peers[leaf][rng.gen_range(0..leaf_peers[leaf].len())];
        if !out.contains(&peer) {
            out.push(peer);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use unistore_util::zipf::Zipf;

    fn paths_partition_key_space(leaves: &[BitPath]) {
        // Sorted, disjoint, gap-free coverage of [0, u64::MAX].
        assert_eq!(leaves[0].min_key(), 0);
        for w in leaves.windows(2) {
            assert_eq!(
                w[0].max_key().wrapping_add(1),
                w[1].min_key(),
                "gap or overlap between {} and {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(leaves.last().unwrap().max_key(), u64::MAX);
    }

    #[test]
    fn uniform_power_of_two_is_complete() {
        let leaves = build_uniform(8, 40);
        assert_eq!(leaves.len(), 8);
        assert!(leaves.iter().all(|p| p.len() == 3));
        paths_partition_key_space(&leaves);
    }

    #[test]
    fn uniform_non_power_of_two_partitions() {
        for n in [1usize, 3, 5, 6, 7, 12, 100] {
            let leaves = build_uniform(n, 40);
            assert_eq!(leaves.len(), n.max(1));
            paths_partition_key_space(&leaves);
        }
    }

    #[test]
    fn balanced_uniform_data_gives_complete_trie() {
        let keys: Vec<Key> = (0..1024u64).map(|i| i << 54).collect();
        let leaves = build_balanced(&keys, 16, 40);
        assert_eq!(leaves.len(), 16);
        paths_partition_key_space(&leaves);
        // Uniform data → all leaves at depth 4.
        assert!(leaves.iter().all(|p| p.len() == 4));
    }

    #[test]
    fn balanced_skewed_data_deepens_dense_region() {
        // Distinct keys whose density is Zipf-skewed towards the low key
        // space (rank selects a 2^45-wide region, the suffix spreads
        // within it) — the skew shape the paper's balancing targets.
        let zipf = Zipf::new(512, 1.1);
        let mut rng = StdRng::seed_from_u64(1);
        let keys: Vec<Key> = (0..20_000)
            .map(|_| ((zipf.sample(&mut rng) as u64) << 45) | rng.gen_range(0..(1u64 << 45)))
            .collect();
        let leaves = build_balanced(&keys, 16, 40);
        paths_partition_key_space(&leaves);
        let max_depth = leaves.iter().map(|p| p.len()).max().unwrap();
        let min_depth = leaves.iter().map(|p| p.len()).min().unwrap();
        assert!(
            max_depth >= min_depth + 2,
            "skewed data should produce an unbalanced trie (min {min_depth}, max {max_depth})"
        );
        // Depth follows density: the leaf owning the densest point (rank
        // 0 region, key 0) is at max depth; the sparse top of the key
        // space is at min depth.
        let dense_leaf = &leaves[leaf_of(&leaves, 0)];
        let sparse_leaf = &leaves[leaf_of(&leaves, u64::MAX)];
        assert_eq!(dense_leaf.len(), max_depth);
        assert_eq!(sparse_leaf.len(), min_depth);
    }

    #[test]
    fn assign_peers_even() {
        let a = assign_peers(4, 10);
        let sizes: Vec<usize> = a.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
        // Every peer appears exactly once.
        let mut all: Vec<usize> = a.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn leaf_of_finds_responsible() {
        let leaves = build_uniform(8, 40);
        for (i, leaf) in leaves.iter().enumerate() {
            assert_eq!(leaf_of(&leaves, leaf.min_key()), i);
            assert_eq!(leaf_of(&leaves, leaf.max_key()), i);
        }
        assert_eq!(leaf_of(&leaves, 0), 0);
        assert_eq!(leaf_of(&leaves, u64::MAX), 7);
    }

    #[test]
    fn sample_subtree_peers_stays_inside() {
        let leaves = build_uniform(8, 40);
        let peers = assign_peers(8, 16);
        let mut rng = StdRng::seed_from_u64(2);
        let prefix = BitPath::parse("01").unwrap();
        let picked = sample_subtree_peers(&leaves, &peers, prefix, 4, &mut rng);
        assert!(!picked.is_empty());
        // Leaves 2 and 3 (paths 010, 011) are inside "01".
        for p in picked {
            assert!(peers[2].contains(&p) || peers[3].contains(&p), "peer {p} outside subtree");
        }
    }

    #[test]
    fn sample_subtree_handles_empty_intersection() {
        let leaves = vec![BitPath::parse("0").unwrap(), BitPath::parse("1").unwrap()];
        let peers = vec![vec![0], vec![1]];
        let mut rng = StdRng::seed_from_u64(2);
        // Prefix "1" subtree exists; ask for it and for a sub-prefix of
        // leaf 0 — both must behave.
        let hi = sample_subtree_peers(&leaves, &peers, BitPath::parse("1").unwrap(), 2, &mut rng);
        assert_eq!(hi, vec![1]);
    }
}
