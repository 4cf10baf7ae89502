//! Per-level routing tables.
//!
//! A peer with trie path `p` of length `L` keeps, for every level
//! `l < L`, references to peers whose paths agree with `p` on the first
//! `l` bits and differ at bit `l` — i.e. peers responsible for the
//! *complementary subtree* at that level. Greedy prefix routing then
//! resolves any key in at most `L` hops. P-Grid keeps several references
//! per level, spreading load and tolerating failures (paper §2). Reads
//! and batched writes go through the one whose path matches the key the
//! longest, skipping the levels between; the other routes pick a random
//! one.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use unistore_simnet::NodeId;
use unistore_util::{BitPath, FxHashMap, Key};

use crate::msg::PeerRef;

/// Where a key routes relative to the local peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteDecision {
    /// The local peer's path is a prefix of the key: handle locally.
    Local,
    /// Forward to this peer (found at the given level).
    Forward(NodeId, u8),
    /// No live reference at the level the key needs: routing hole.
    Stuck(u8),
}

/// Routing state of one peer.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    path: BitPath,
    /// `levels[l]` holds refs into the complementary subtree at level `l`.
    levels: Vec<Vec<PeerRef>>,
    /// Peers sharing the exact same path (replica group), self excluded.
    replicas: Vec<NodeId>,
    /// Max refs kept per level.
    cap: usize,
    /// Read dispatches per referenced peer — the load signal of
    /// [`RoutingTable::route_read`].
    read_load: FxHashMap<NodeId, u64>,
}

impl RoutingTable {
    /// Empty table for a peer at `path`.
    pub fn new(path: BitPath, cap: usize) -> Self {
        assert!(cap >= 1, "routing table needs capacity for at least one ref");
        RoutingTable {
            path,
            levels: vec![Vec::new(); path.len() as usize],
            replicas: Vec::new(),
            cap,
            read_load: FxHashMap::default(),
        }
    }

    /// The local peer's trie path.
    pub fn path(&self) -> BitPath {
        self.path
    }

    /// Re-homes the table after a path change (bootstrap splits).
    /// Existing refs are re-filed; those that no longer fit are dropped.
    pub fn set_path(&mut self, path: BitPath) {
        let old_refs = self.all_refs();
        self.path = path;
        self.levels = vec![Vec::new(); path.len() as usize];
        for r in old_refs {
            self.add_ref(r);
        }
        // Old replicas may or may not still share the path; without their
        // paths we can't tell, so they are dropped and rediscovered by
        // maintenance. (Bootstrap re-adds the known ones explicitly.)
        self.replicas.clear();
    }

    /// True if this peer is responsible for `key`.
    #[inline]
    pub fn responsible(&self, key: Key) -> bool {
        self.path.is_prefix_of_key(key)
    }

    /// Routing decision for `key`: a random reference at the needed
    /// level, passing over `avoid` while another exists ([`Self::pick`]).
    /// Bootstrap hand-offs, range scans and tombstones that cascade past
    /// a migrated path route this way.
    pub fn route(&self, key: Key, avoid: Option<NodeId>, rng: &mut StdRng) -> RouteDecision {
        let l = self.path.common_prefix_len_key(key);
        if l == self.path.len() {
            return RouteDecision::Local;
        }
        match self.pick(l, avoid, rng) {
            Some(r) => RouteDecision::Forward(r.id, l),
            None => RouteDecision::Stuck(l),
        }
    }

    /// Routing decision for a *read*: among the references at the
    /// needed level, one whose trie path agrees with the key the longest
    /// (the [`RoutingTable::route_jump`] ranking), and among equally deep
    /// ones the least-dispatched. A reference deep in the key's subtree
    /// skips the levels between, so a lookup takes far fewer hops than
    /// the trie is deep. On the last level every member of the
    /// responsible leaf ties, so hot-key lookups still fan out across
    /// the replicas holding the data rather than hammering one of them.
    /// Deterministic — equal loads break toward the first stored ref —
    /// and still avoiding `avoid` (the first hop of an earlier attempt)
    /// when an alternative exists.
    pub fn route_read(&mut self, key: Key, avoid: Option<NodeId>) -> RouteDecision {
        let load = |id: &NodeId| self.read_load.get(id).copied().unwrap_or(0);
        let decision = self.route_deepest(key, avoid, |_, best, r| load(&r) < load(&best));
        if let RouteDecision::Forward(id, _) = decision {
            *self.read_load.entry(id).or_insert(0) += 1;
        }
        decision
    }

    /// Read dispatches recorded against a peer (observability).
    pub fn read_load_of(&self, id: NodeId) -> u64 {
        self.read_load.get(&id).copied().unwrap_or(0)
    }

    /// Routing decision for `key` that may jump several levels at once:
    /// the deepest-matching reference at the needed level, like
    /// [`RoutingTable::route_read`], but with ties broken uniformly at
    /// random and no load recorded.
    ///
    /// Correctness is the same argument as [`RoutingTable::route`] —
    /// every hop strictly extends the matched prefix, so routing
    /// terminates within the trie depth — but hops get *shorter* in
    /// expectation. Batch forwarding uses this: each saved hop is one
    /// fewer edge the whole sub-batch (op tags + shared payloads) must
    /// cross, which is exactly the KiB the coalesced write pipeline is
    /// supposed to save.
    pub fn route_jump(&self, key: Key, avoid: Option<NodeId>, rng: &mut StdRng) -> RouteDecision {
        // Reservoir sampling: the `ties`-th tie replaces the pick with
        // probability 1 / (ties + 1).
        self.route_deepest(key, avoid, |ties, _, _| rng.gen_range(0..=ties) == 0)
    }

    /// The ranking scan of [`RoutingTable::route_read`] and
    /// [`RoutingTable::route_jump`]: the reference at the needed level
    /// whose path matches `key` the longest, skipping `avoid` when an
    /// alternative exists. On a tie `take(ties, pick, r)` — `ties`
    /// counting the ties so far at the pick's depth, this one included —
    /// decides whether `r` replaces the pick. Single pass and
    /// allocation-free: this runs once per op per hop.
    fn route_deepest(
        &self,
        key: Key,
        avoid: Option<NodeId>,
        mut take: impl FnMut(u32, NodeId, NodeId) -> bool,
    ) -> RouteDecision {
        let l = self.path.common_prefix_len_key(key);
        if l == self.path.len() {
            return RouteDecision::Local;
        }
        let level = &self.levels[l as usize];
        let shun = match avoid {
            Some(a) if level.len() > 1 && level.iter().any(|x| x.id == a) => Some(a),
            _ => None,
        };
        let mut best: Option<(u8, NodeId)> = None;
        let mut ties = 0u32;
        for r in level {
            if Some(r.id) == shun {
                continue;
            }
            let m = r.path.common_prefix_len_key(key);
            match &mut best {
                Some((bm, bid)) if m == *bm => {
                    ties += 1;
                    if take(ties, *bid, r.id) {
                        *bid = r.id;
                    }
                }
                Some((bm, _)) if m > *bm => {
                    best = Some((m, r.id));
                    ties = 0;
                }
                Some(_) => {}
                None => best = Some((m, r.id)),
            }
        }
        match best {
            Some((_, id)) => RouteDecision::Forward(id, l),
            None => RouteDecision::Stuck(l),
        }
    }

    /// The level a table at `path` files a peer at `peer` into (the rule
    /// of [`RoutingTable::add_ref`]); `None` for a replica or a peer on a
    /// prefix of `path`. The table-reply filter
    /// ([`RoutingTable::files_into_open_level`]) decides with it too.
    pub(crate) fn filing_level(path: BitPath, peer: BitPath) -> Option<u8> {
        let l = path.common_prefix_len(&peer);
        (l < path.len() && peer.len() > l).then_some(l)
    }

    /// Bit `l` set when level `l` already holds `cap` references, so
    /// [`RoutingTable::add_ref`] files nothing new there. A table request
    /// carries it.
    pub(crate) fn full_levels(&self) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .filter(|(_, level)| level.len() >= self.cap)
            .fold(0, |full, (l, _)| full | (1 << l))
    }

    /// Whether a table at `path` whose [`RoutingTable::full_levels`] are
    /// `full` would file a peer at `peer` into a level that is not full:
    /// the references a table reply carries. Bits of `full` at or past
    /// `path.len()` are never read (a level is below `path.len()` ≤ 64).
    pub(crate) fn files_into_open_level(path: BitPath, full: u64, peer: BitPath) -> bool {
        Self::filing_level(path, peer).is_some_and(|l| full & (1 << l) == 0)
    }

    /// Offers a reference; returns `true` if it was stored.
    ///
    /// A peer qualifies for level `l` when its path shares exactly `l`
    /// bits with ours and is longer than `l` (it actually covers the
    /// complementary subtree). A peer with our exact path is a replica.
    /// A level that already holds the peer refreshes its stored path; a
    /// full one takes nothing new.
    pub fn add_ref(&mut self, r: PeerRef) -> bool {
        let Some(l) = Self::filing_level(self.path, r.path) else {
            return false;
        };
        let level = &mut self.levels[l as usize];
        if level.iter().any(|existing| existing.id == r.id) {
            // Refresh the stored path (it may have deepened).
            for existing in level.iter_mut() {
                if existing.id == r.id {
                    existing.path = r.path;
                }
            }
            return false;
        }
        if level.len() >= self.cap {
            return false;
        }
        level.push(r);
        true
    }

    /// Registers a replica (same path, different peer).
    pub fn add_replica(&mut self, id: NodeId) {
        if !self.replicas.contains(&id) {
            self.replicas.push(id);
        }
    }

    /// Removes a peer everywhere (failure detected).
    pub fn remove(&mut self, id: NodeId) {
        for level in &mut self.levels {
            level.retain(|r| r.id != id);
        }
        self.replicas.retain(|&r| r != id);
        self.read_load.remove(&id);
    }

    /// Refs at one level.
    pub fn level_refs(&self, l: u8) -> &[PeerRef] {
        &self.levels[l as usize]
    }

    /// Picks a random ref at a level, other than `avoid` (an earlier
    /// attempt's first hop) while the level holds another.
    pub fn pick(&self, l: u8, avoid: Option<NodeId>, rng: &mut StdRng) -> Option<PeerRef> {
        let level = &self.levels[l as usize];
        let Some(at) = level.iter().position(|r| Some(r.id) == avoid).filter(|_| level.len() > 1)
        else {
            return level.choose(rng).copied();
        };
        // Uniform over the others: a non-zero offset from `avoid`.
        level.get((at + rng.gen_range(1..level.len())) % level.len()).copied()
    }

    /// Every stored ref (all levels), for table gossip.
    pub fn all_refs(&self) -> Vec<PeerRef> {
        self.levels.iter().flatten().copied().collect()
    }

    /// The replica group (self excluded).
    pub fn replicas(&self) -> &[NodeId] {
        &self.replicas
    }

    /// Number of levels (= path length).
    pub fn depth(&self) -> u8 {
        self.path.len()
    }

    /// Total refs stored.
    pub fn ref_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Levels that currently have no reference (routing holes).
    pub fn empty_levels(&self) -> Vec<u8> {
        self.levels.iter().enumerate().filter(|(_, v)| v.is_empty()).map(|(l, _)| l as u8).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    fn pr(id: u32, path: &str) -> PeerRef {
        PeerRef { id: NodeId(id), path: BitPath::parse(path).unwrap() }
    }

    /// Every path of depth ≤ 3, the root included: 15 of them.
    pub(crate) fn shallow_paths() -> Vec<BitPath> {
        let mut paths = vec![BitPath::ROOT];
        let mut i = 0;
        while i < paths.len() {
            if paths[i].len() < 3 {
                paths.extend([paths[i].child(false), paths[i].child(true)]);
            }
            i += 1;
        }
        paths
    }

    /// Every subset of `0..n` with at most `k` members, ascending.
    pub(crate) fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new()];
        let mut i = 0;
        while i < out.len() {
            let last = out[i].last().map_or(0, |&l| l + 1);
            if out[i].len() < k {
                for next in last..n {
                    let mut s = out[i].clone();
                    s.push(next);
                    out.push(s);
                }
            }
            i += 1;
        }
        out
    }

    /// Every table at `path` choosing up to `cap` of the references on
    /// `paths` per level, peer `i` sitting at `paths[i]`.
    pub(crate) fn tables_at(paths: &[BitPath], path: BitPath, cap: usize) -> Vec<RoutingTable> {
        let at = |i: usize| PeerRef { id: NodeId(i as u32), path: paths[i] };
        let mut tables = vec![RoutingTable::new(path, cap)];
        for l in 0..path.len() {
            let fits: Vec<usize> = (0..paths.len())
                .filter(|&i| RoutingTable::filing_level(path, paths[i]) == Some(l))
                .collect();
            tables = tables
                .iter()
                .flat_map(|t| {
                    subsets(fits.len(), cap).into_iter().map(|pick| {
                        let mut t = t.clone();
                        pick.iter().for_each(|&j| assert!(t.add_ref(at(fits[j]))));
                        t
                    })
                })
                .collect();
        }
        tables
    }

    /// Checks one `route_read` against the rule: the pick matches `key`
    /// as deep as any reference at the needed level, is not `avoid`
    /// while the level holds another reference, and among the equally
    /// deep candidates is the first stored of the least dispatched.
    fn check_read(t: &mut RoutingTable, key: Key, avoid: Option<NodeId>) {
        if t.responsible(key) {
            return assert_eq!(t.route_read(key, avoid), RouteDecision::Local);
        }
        let l = t.path().common_prefix_len_key(key);
        let level = t.level_refs(l).to_vec();
        let before: Vec<u64> = level.iter().map(|r| t.read_load_of(r.id)).collect();
        let RouteDecision::Forward(id, at) = t.route_read(key, avoid) else {
            panic!("{t:?} has no hole to be stuck in")
        };
        assert_eq!(at, l);
        let cands: Vec<usize> =
            (0..level.len()).filter(|&i| level.len() == 1 || Some(level[i].id) != avoid).collect();
        let depth = |i: usize| level[i].path.common_prefix_len_key(key);
        let deepest = cands.iter().map(|&i| depth(i)).max().unwrap();
        let ties: Vec<usize> = cands.into_iter().filter(|&i| depth(i) == deepest).collect();
        let least = ties.iter().map(|&i| before[i]).min().unwrap();
        let want = ties.into_iter().find(|&i| before[i] == least).unwrap();
        assert_eq!(id, level[want].id, "{t:?} key {key:#x} avoid {avoid:?}");
    }

    /// The most hops a read for `key` takes from peer `from`, over every
    /// table in `tables` each peer on the way may hold, memoised per
    /// peer. Panics on a routing hole, which a table with no empty level
    /// cannot have.
    fn worst_walk(
        tables: &[Vec<RoutingTable>],
        memo: &mut FxHashMap<usize, u8>,
        from: usize,
        key: Key,
    ) -> u8 {
        if let Some(&hops) = memo.get(&from) {
            return hops;
        }
        let mut worst = 0;
        for t in &tables[from] {
            match t.clone().route_read(key, None) {
                RouteDecision::Local => {}
                RouteDecision::Forward(next, _) => {
                    let hops = 1 + worst_walk(tables, memo, next.0 as usize, key);
                    worst = worst.max(hops);
                }
                RouteDecision::Stuck(l) => panic!("a hole at level {l} of {t:?}"),
            }
        }
        memo.insert(from, worst);
        worst
    }

    /// Over every table on a path of depth ≤ 3 with 1 or 2 references
    /// per level, every 3-bit key prefix and `avoid` unset or any one
    /// reference: three reads in a row each pick the deepest match at
    /// the needed level, never `avoid` while another reference is
    /// there, and the least-dispatched of the equally deep ones. And
    /// the greedy walk from a peer reaches one responsible for the key
    /// within as many hops as the key has bits its path does not match,
    /// whatever table each peer on the way holds: at most the depth.
    #[test]
    fn route_read_takes_the_deepest_least_loaded_reference() {
        let paths = shallow_paths();
        let tables: Vec<Vec<RoutingTable>> = paths
            .iter()
            .map(|&p| {
                let mut all = tables_at(&paths, p, 2);
                all.retain(|t| t.empty_levels().is_empty());
                all
            })
            .collect();
        for prefix in 0..8u64 {
            let key = prefix << 61;
            let mut memo = FxHashMap::default();
            for (from, &path) in paths.iter().enumerate() {
                for table in &tables[from] {
                    let l = path.common_prefix_len_key(key);
                    let refs = if l < path.len() { table.level_refs(l).to_vec() } else { vec![] };
                    for avoid in std::iter::once(None).chain(refs.iter().map(|r| Some(r.id))) {
                        let mut t = table.clone();
                        for _ in 0..3 {
                            check_read(&mut t, key, avoid);
                        }
                    }
                }
                let matched = path.common_prefix_len_key(key);
                let hops = worst_walk(&tables, &mut memo, from, key);
                assert!(hops <= 3 - matched, "{path:?} key {prefix:03b}: {hops} hops");
            }
        }
    }

    #[test]
    fn add_ref_files_by_common_prefix() {
        let mut t = RoutingTable::new(BitPath::parse("010").unwrap(), 3);
        assert!(t.add_ref(pr(1, "1"))); // differs at bit 0 → level 0
        assert!(t.add_ref(pr(2, "00"))); // agrees 1 bit, differs at bit 1 → level 1
        assert!(t.add_ref(pr(3, "011"))); // agrees 2 bits → level 2
        assert_eq!(t.level_refs(0).len(), 1);
        assert_eq!(t.level_refs(1).len(), 1);
        assert_eq!(t.level_refs(2).len(), 1);
        assert_eq!(t.ref_count(), 3);
    }

    #[test]
    fn rejects_same_path_and_less_specialized() {
        let mut t = RoutingTable::new(BitPath::parse("010").unwrap(), 3);
        assert!(!t.add_ref(pr(1, "010"))); // same path → replica, not ref
        assert!(!t.add_ref(pr(2, "01"))); // our prefix → not in complement
        assert!(!t.add_ref(pr(3, "0"))); // our prefix
        assert_eq!(t.ref_count(), 0);
    }

    #[test]
    fn cap_enforced_and_duplicates_ignored() {
        let mut t = RoutingTable::new(BitPath::parse("0").unwrap(), 2);
        assert!(t.add_ref(pr(1, "1")));
        assert!(!t.add_ref(pr(1, "1"))); // duplicate id
        assert!(t.add_ref(pr(2, "10")));
        assert!(!t.add_ref(pr(3, "11"))); // over cap
        assert_eq!(t.ref_count(), 2);
    }

    #[test]
    fn duplicate_add_refreshes_path() {
        let mut t = RoutingTable::new(BitPath::parse("0").unwrap(), 2);
        t.add_ref(pr(1, "1"));
        t.add_ref(pr(1, "10")); // same peer deepened its path
        assert_eq!(t.level_refs(0)[0].path, BitPath::parse("10").unwrap());
    }

    #[test]
    fn route_local_forward_stuck() {
        let mut t = RoutingTable::new(BitPath::parse("01").unwrap(), 3);
        t.add_ref(pr(1, "1"));
        let mut r = rng();
        // Key starting 01… → local.
        let local_key = 0b01u64 << 62;
        assert_eq!(t.route(local_key, None, &mut r), RouteDecision::Local);
        // Key starting 1… → level 0 forward.
        let k1 = 1u64 << 63;
        assert_eq!(t.route(k1, None, &mut r), RouteDecision::Forward(NodeId(1), 0));
        // Key starting 00… → level 1, which is empty.
        let k00 = 0u64;
        assert_eq!(t.route(k00, None, &mut r), RouteDecision::Stuck(1));
    }

    #[test]
    fn remove_clears_everywhere() {
        let mut t = RoutingTable::new(BitPath::parse("01").unwrap(), 3);
        t.add_ref(pr(1, "1"));
        t.add_ref(pr(2, "00"));
        t.add_replica(NodeId(1));
        t.remove(NodeId(1));
        assert_eq!(t.ref_count(), 1);
        assert!(t.replicas().is_empty());
        t.remove(NodeId(2));
        assert_eq!(t.ref_count(), 0);
    }

    #[test]
    fn set_path_refiles_refs() {
        let mut t = RoutingTable::new(BitPath::parse("0").unwrap(), 3);
        t.add_ref(pr(1, "1"));
        t.add_ref(pr(2, "10"));
        t.set_path(BitPath::parse("01").unwrap());
        // Both refs still differ at bit 0 → level 0.
        assert_eq!(t.level_refs(0).len(), 2);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.empty_levels(), vec![1]);
    }

    #[test]
    fn route_read_rotates_least_loaded() {
        let mut t = RoutingTable::new(BitPath::parse("0").unwrap(), 3);
        // Two replicas of the leaf "10".
        t.add_ref(pr(1, "10"));
        t.add_ref(pr(2, "10"));
        // Repeated reads of the same hot key alternate between the two
        // equally deep refs: the replica group fans the load out.
        let key = 0b10u64 << 62;
        let mut hits = [0u64; 3];
        for _ in 0..10 {
            match t.route_read(key, None) {
                RouteDecision::Forward(NodeId(id), 0) => hits[id as usize] += 1,
                other => panic!("unexpected decision {other:?}"),
            }
        }
        assert_eq!(hits[1], 5, "load spreads evenly across the level");
        assert_eq!(hits[2], 5);
        assert_eq!(t.read_load_of(NodeId(1)), 5);
    }

    #[test]
    fn route_read_local_stuck_and_avoid() {
        let mut t = RoutingTable::new(BitPath::parse("01").unwrap(), 3);
        t.add_ref(pr(1, "1"));
        assert_eq!(t.route_read(0b01u64 << 62, None), RouteDecision::Local);
        assert_eq!(t.route_read(0u64, None), RouteDecision::Stuck(1));
        // Sole ref: avoid falls back to it rather than sticking.
        assert_eq!(t.route_read(1u64 << 63, Some(NodeId(1))), RouteDecision::Forward(NodeId(1), 0));
        // With an alternative, avoid is honored.
        t.add_ref(pr(2, "10"));
        assert_eq!(t.route_read(1u64 << 63, Some(NodeId(1))), RouteDecision::Forward(NodeId(2), 0));
    }

    #[test]
    fn remove_clears_read_load() {
        let mut t = RoutingTable::new(BitPath::parse("0").unwrap(), 3);
        t.add_ref(pr(1, "1"));
        let _ = t.route_read(1u64 << 63, None);
        assert_eq!(t.read_load_of(NodeId(1)), 1);
        t.remove(NodeId(1));
        assert_eq!(t.read_load_of(NodeId(1)), 0);
    }

    #[test]
    fn replicas_tracked_without_duplicates() {
        let mut t = RoutingTable::new(BitPath::parse("0").unwrap(), 3);
        t.add_replica(NodeId(5));
        t.add_replica(NodeId(5));
        assert_eq!(t.replicas(), &[NodeId(5)]);
    }
}
