//! `churn_pgrid` / `churn_chord`: one campaign per run on the cluster
//! built at set-up — heavy churn plus 2 % message loss for as long as the
//! trials last; maintenance, anti-entropy and liveness probing on. A
//! trial is one slice of simulated time: the network settles to the slice
//! boundary, then a client attached to sixteen stable peers issues an
//! 8-deep pipelined burst of Zipf point reads with write batches
//! interleaved, and waits for all of it (closed loop).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use unistore::backends::{chord_config, ChordUniCluster};
use unistore::{QueryOutcome, UniCluster, UniConfig};
use unistore_chord::ChordConfig;
use unistore_overlay::Overlay;
use unistore_query::{LocalEngine, Relation};
use unistore_simnet::churn::ChurnConfig;
use unistore_simnet::{NodeId, SimTime};
use unistore_store::{Triple, Tuple};
use unistore_util::rng::{derive_rng, stream as ustream};
use unistore_util::zipf::Zipf;
use unistore_util::FxHashSet;
use unistore_workload::{zipf_write_batches, PubWorld};

use crate::spec::Sizes;
use crate::workloads::{
    oracle_answer, pub_params, readback_query, row_hashes, stream, Recorder, Sample, SetupTimes,
    Workload, WORLD_SEED, WRITE_ATTR, WRITE_THETA,
};

/// Message loss during the campaign.
const LOSS: f64 = 0.02;
/// Coverage a read must report to count as answered.
const MIN_COVERAGE: f64 = 0.9;
/// Zipf exponent of the read stream over the sampled entities: the head
/// entity draws about 6 % of the reads. (The generators' 40 conference
/// names at θ = 1.1 put half the reads on three keys, and whether those
/// keys' replica groups happened to crash then decides the whole run.)
const READ_THETA: f64 = 0.8;
/// Stable peers the client attaches to, round robin. Sixteen rather
/// than a handful, so that the distance from the origins to the Zipf
/// head's owners averages out instead of deciding the median latency.
const ORIGINS: usize = 16;
/// Pipelined reads in flight.
const WINDOW: usize = 8;
/// Origin-side query timeout and overlay-op timeout. The simulated LAN
/// answers a healthy read in about 2 ms, so these are still three orders
/// of magnitude above it; the snapshots' 30 s / 8 s would stretch a
/// campaign's simulated time — and with it the anti-entropy work that
/// dominates `churn_chord`'s wall time — fourfold.
const QUERY_TIMEOUT: SimTime = SimTime::from_secs(8);
const OVERLAY_TIMEOUT: SimTime = SimTime::from_secs(2);
/// The client's deadline budget, `query_timeout × (query_retries + 2)` as
/// `UniCluster::query_wait` computes it. An op without a final positive
/// answer — read or write — counts at this latency.
const DEADLINE: SimTime = SimTime::from_secs(32);
/// Crashes are scheduled this far past the start of a burst, which
/// bounds how long a burst can run (writes block for at most
/// `OVERLAY_TIMEOUT × 3` each, reads for `DEADLINE`).
const LOOKAHEAD: SimTime = SimTime::from_secs(75);

/// P-Grid under churn: `fault-snapshot`'s replication and maintenance
/// cadence (its ticks are not jittered, hence the slice alignment).
pub fn pgrid_churn_cfg() -> UniConfig {
    let mut cfg = UniConfig::default()
        .with_replication(3)
        .with_maintenance(SimTime::from_secs(10), SimTime::from_secs(30))
        .with_min_coverage(MIN_COVERAGE)
        .with_max_in_flight(WINDOW);
    cfg.overlay.refs_per_level = 4;
    cfg.with_qgrams = false;
    cfg.query_timeout = QUERY_TIMEOUT;
    cfg.overlay.query_timeout = OVERLAY_TIMEOUT;
    cfg
}

/// Chord under churn: successor replication, digest anti-entropy and
/// finger probing at `scale-snapshot`'s cadence (jittered, one digest per
/// node per minute: at `fault-snapshot`'s 30 s the flat digests of this
/// world alone cost 20 ms of wall time per simulated second).
pub fn chord_churn_cfg() -> UniConfig<ChordConfig> {
    let mut cfg = chord_config().with_min_coverage(MIN_COVERAGE).with_max_in_flight(WINDOW);
    cfg.overlay.replicate = true;
    cfg.overlay.anti_entropy_interval = SimTime::from_secs(60);
    cfg.overlay.ping_interval = SimTime::from_secs(20);
    cfg.with_qgrams = false;
    cfg.query_timeout = QUERY_TIMEOUT;
    cfg.overlay.query_timeout = OVERLAY_TIMEOUT;
    cfg
}

/// `ChurnConfig::heavy()` with its two random counts replaced by their
/// expectations (stratified sampling of the same process): 80 % of the
/// peers churn, each crash lasts exactly the mean downtime, and every
/// slice sees the expected number of crashes — at seeded random instants
/// on seeded random victims — instead of a Poisson draw. The offline
/// count then sits at heavy()'s steady state (one churning peer in six)
/// rather than wandering ±20 % around it, which matters because losing a
/// whole replica group goes with its cube. Mean session length follows:
/// up peers / crashes per slice × slice = heavy()'s 600 s.
struct StratifiedChurn {
    rng: StdRng,
    slice: SimTime,
    downtime: SimTime,
    crashes_per_slice: f64,
    owed: f64,
    /// Churning peers and when each is back up (`ZERO` = never crashed).
    peers: Vec<(NodeId, SimTime)>,
    next_slice: u64,
    scheduled_until: SimTime,
}

impl StratifiedChurn {
    /// `who` decides which peers churn (part of the frozen deployment, so
    /// the stable origins are the same for every seed); `rng` decides
    /// who crashes when.
    fn new(
        n: usize,
        cfg: ChurnConfig,
        mut who: StdRng,
        rng: StdRng,
        slice: SimTime,
    ) -> StratifiedChurn {
        let mut ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        ids.shuffle(&mut who);
        ids.truncate((n as f64 * cfg.churn_fraction).round() as usize);
        let cycle = (cfg.mean_session.as_micros() + cfg.mean_downtime.as_micros()) as f64;
        let crashes_per_slice = ids.len() as f64 * slice.as_micros() as f64 / cycle;
        StratifiedChurn {
            rng,
            slice,
            downtime: cfg.mean_downtime,
            crashes_per_slice,
            owed: 0.0,
            peers: ids.into_iter().map(|id| (id, SimTime::ZERO)).collect(),
            next_slice: 0,
            scheduled_until: SimTime::ZERO,
        }
    }

    fn churning(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.peers.iter().map(|&(id, _)| id)
    }

    /// Schedules every slice that starts before `until` and is not in
    /// the past of `now`.
    fn extend<O: Overlay<Item = Triple>>(
        &mut self,
        cluster: &mut UniCluster<O>,
        now: SimTime,
        until: SimTime,
    ) {
        let len = self.slice.as_micros();
        self.next_slice = self.next_slice.max(now.as_micros() / len + 1);
        while self.next_slice * len < until.as_micros() {
            let start = SimTime::from_micros(self.next_slice * len);
            self.owed += self.crashes_per_slice;
            while self.owed >= 1.0 {
                self.owed -= 1.0;
                let at = start + SimTime::from_micros(self.rng.gen_range(0..len));
                let up: Vec<usize> =
                    (0..self.peers.len()).filter(|&i| self.peers[i].1 <= at).collect();
                let Some(&victim) = up.choose(&mut self.rng) else { continue };
                let back = at + self.downtime;
                cluster.net.schedule_down(self.peers[victim].0, at);
                cluster.net.schedule_up(self.peers[victim].0, back);
                self.peers[victim].1 = back;
            }
            self.next_slice += 1;
            self.scheduled_until = SimTime::from_micros(self.next_slice * len);
        }
    }
}

struct PendingRead {
    op: u64,
    qid: u64,
    query: usize,
}

struct DoneRead {
    op: u64,
    query: usize,
    out: QueryOutcome,
}

pub struct Churn<O: Overlay<Item = Triple>> {
    world: PubWorld,
    oracle: LocalEngine,
    cluster: UniCluster<O>,
    churn: StratifiedChurn,
    origins: Vec<NodeId>,
    /// Distinct read queries and, per query, the hashes of the rows the
    /// oracle answers with (nothing writes to the attribute they read).
    queries: Vec<String>,
    allowed: Vec<FxHashSet<u64>>,
    /// Query index of every read, in issue order.
    read_plan: Vec<usize>,
    next_read: usize,
    writes: Vec<Vec<Tuple>>,
    next_write: usize,
    sizes: Sizes,
    slices_per_trial: usize,
    done: Vec<DoneRead>,
    acked: Vec<usize>,
}

pub type ChurnPGrid = Churn<unistore_pgrid::PGridPeer<Triple>>;
pub type ChurnChord = Churn<unistore::ChordOverlay>;

impl ChurnPGrid {
    pub fn setup(sizes: &Sizes, seed: u64, trials: usize) -> (ChurnPGrid, SetupTimes) {
        Churn::setup_on(sizes, seed, trials, sizes.churn_pgrid_slices, |n| {
            UniCluster::build(n, pgrid_churn_cfg(), WORLD_SEED)
        })
    }
}

impl ChurnChord {
    pub fn setup(sizes: &Sizes, seed: u64, trials: usize) -> (ChurnChord, SetupTimes) {
        Churn::setup_on(sizes, seed, trials, sizes.churn_chord_slices, |n| {
            ChordUniCluster::build_overlay(n, chord_churn_cfg(), WORLD_SEED)
        })
    }
}

impl<O: Overlay<Item = Triple>> Churn<O> {
    fn setup_on(
        sizes: &Sizes,
        seed: u64,
        trials: usize,
        slices_per_trial: usize,
        build: impl FnOnce(usize) -> UniCluster<O>,
    ) -> (Churn<O>, SetupTimes) {
        let slices = trials * slices_per_trial;
        let t = Instant::now();
        let world = PubWorld::generate(&pub_params(sizes), WORLD_SEED);
        let tuples = world.all_tuples();
        // Reads: point queries by oid over a sample of authors and
        // publications, Zipf-ranked in sample order; sample and ranking
        // belong to the frozen deployment (which entities are popular),
        // the seed draws the sequence. By oid, because the
        // OID index spreads over a third of the trie; P-Grid's hashing
        // preserves order, so reads by one attribute's values would all
        // land on the one or two leaves that hold that attribute, and the
        // fate of those few peers would decide the run.
        let mut pick = derive_rng(WORLD_SEED, stream::PICK);
        let mut entities: Vec<(&Tuple, &str)> = world
            .authors
            .iter()
            .map(|a| (a, "name"))
            .chain(world.publications.iter().map(|p| (p, "title")))
            .collect();
        entities.shuffle(&mut pick);
        entities.truncate(sizes.churn_keys.min(entities.len()));
        let queries: Vec<String> = entities
            .iter()
            .map(|(t, attr)| format!("SELECT ?v WHERE {{('{}','{attr}',?v)}}", t.oid.as_str()))
            .collect();
        let zipf = Zipf::new(queries.len(), READ_THETA);
        let mut draw = derive_rng(seed, stream::OPS);
        let read_plan: Vec<usize> =
            (0..slices * sizes.churn_reads).map(|_| zipf.sample(&mut draw)).collect();
        let writes = zipf_write_batches(
            &world,
            WRITE_ATTR,
            slices * sizes.churn_writes,
            sizes.churn_write_batch,
            WRITE_THETA,
            seed,
        );
        let gen_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut cluster = build(sizes.churn_peers);
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        cluster.load(tuples);
        let load_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let oracle = cluster.oracle();
        let allowed: Vec<FxHashSet<u64>> = queries
            .iter()
            .map(|q| row_hashes(&oracle_answer(&oracle, q)).into_iter().collect())
            .collect();
        let oracle_s = t.elapsed().as_secs_f64();

        // The campaign's prelude: RTT windows warm while the network is
        // healthy, then loss and churn switch on.
        let slice = SimTime::from_secs(sizes.churn_slice_s);
        let churn = StratifiedChurn::new(
            sizes.churn_peers,
            ChurnConfig::heavy(),
            derive_rng(WORLD_SEED, ustream::CHURN),
            derive_rng(seed, ustream::CHURN),
            slice,
        );
        let churning: FxHashSet<NodeId> = churn.churning().collect();
        let origins: Vec<NodeId> = (0..sizes.churn_peers as u32)
            .map(NodeId)
            .filter(|id| !churning.contains(id))
            .take(ORIGINS)
            .collect();
        assert!(!origins.is_empty(), "churn spared no stable origin");
        for (i, q) in queries.iter().cycle().take(4 * origins.len()).enumerate() {
            let out = cluster.query(origins[i % origins.len()], q).expect("generated query parses");
            assert!(out.ok, "warm-up read failed on a healthy network");
        }
        cluster.net.set_loss_rate(LOSS);

        let w = Churn {
            world,
            oracle,
            cluster,
            churn,
            origins,
            queries,
            allowed,
            read_plan,
            next_read: 0,
            writes,
            next_write: 0,
            sizes: *sizes,
            slices_per_trial,
            done: Vec::new(),
            acked: Vec::new(),
        };
        (w, SetupTimes { gen_s, build_s, load_s, oracle_s })
    }

    /// One slice: the network settles to two seconds past the next
    /// multiple of the slice length on the simulated clock, then the burst
    /// runs closed loop. Periodic maintenance fires on those multiples, so
    /// every slice pays for the same number of rounds (two, rarely, when a
    /// burst overran) instead of every other one paying for all of them.
    fn slice(&mut self, rec: &mut Recorder) {
        let slice = self.sizes.churn_slice_s * 1_000_000;
        let now = self.cluster.net.now();
        let start = SimTime::from_micros((now.as_micros() / slice + 1) * slice + 2_000_000);
        self.churn.extend(&mut self.cluster, now, start + LOOKAHEAD);
        let settle = rec.tracer.open("simnet.settle", 0);
        self.cluster.settle(start.saturating_sub(now));
        rec.tracer.close(settle);

        let every = (self.sizes.churn_reads / self.sizes.churn_writes.max(1)).max(1);
        let mut pending = Vec::with_capacity(self.sizes.churn_reads);
        for i in 0..self.sizes.churn_reads {
            let query = self.read_plan[self.next_read];
            self.next_read += 1;
            let op = rec.next_op();
            let s = rec.tracer.open("core.submit", op);
            let qid = self
                .cluster
                .query_submit(self.origins[i % self.origins.len()], &self.queries[query])
                .expect("generated query parses");
            rec.tracer.close(s);
            pending.push(PendingRead { op, qid, query });
            if (i + 1) % every == 0 && self.next_write < self.writes.len() {
                let w = self.next_write;
                self.next_write += 1;
                let op = rec.next_op();
                let s = rec.tracer.open("core.insert_batch", op);
                let origin = self.origins[(i / every) % self.origins.len()];
                let (ok, cost) = self.cluster.insert_batch(origin, &self.writes[w]);
                rec.tracer.close(s);
                rec.attempted += 1;
                rec.writes += 1;
                rec.hops += cost.hops as u64;
                rec.triples_written +=
                    self.writes[w].iter().map(|t| t.fields.len() as u64).sum::<u64>();
                rec.lat_ms.push(if ok { cost.latency } else { DEADLINE }.as_millis_f64());
                if ok {
                    rec.writes_acked += 1;
                    self.acked.push(w);
                }
                if rec.samples_op(op) {
                    rec.samples.push(Sample {
                        op,
                        query: readback_query(self.writes[w][0].oid.as_str()),
                        relation: Relation::empty(vec![]),
                        tuples: self.writes[w].clone(),
                    });
                }
            }
        }
        let wait = rec.tracer.open("core.wait", 0);
        for p in pending {
            let out = self.cluster.query_wait(p.qid);
            self.done.push(DoneRead { op: p.op, query: p.query, out });
        }
        rec.tracer.close(wait);
    }

    /// How many of the acked batches read back completely.
    fn durable_batches(&mut self) -> usize {
        let mut durable = 0;
        for k in 0..self.acked.len() {
            let batch = self.writes[self.acked[k]].clone();
            let all = batch.iter().enumerate().all(|(i, t)| {
                let origin = self.origins[i % self.origins.len()];
                let out = self
                    .cluster
                    .query(origin, &readback_query(t.oid.as_str()))
                    .expect("generated query parses");
                let want = t.get(WRITE_ATTR).expect("write batches carry the attribute");
                out.ok && out.relation.rows.len() == 1 && out.relation.rows[0][0].eq_values(want)
            });
            durable += all as usize;
        }
        self.cluster.take_traces();
        durable
    }
}

impl<O: Overlay<Item = Triple>> Workload for Churn<O> {
    type O = O;

    fn ops_per_trial(&self) -> usize {
        self.slices_per_trial * (self.sizes.churn_reads + self.sizes.churn_writes)
    }

    /// A trial is several consecutive slices: how many reads fail and how
    /// much repair traffic flows differs from slice to slice, and a trial
    /// a few slices long averages that out.
    fn trial(&mut self, _idx: usize, rec: &mut Recorder) {
        for _ in 0..self.slices_per_trial {
            self.slice(rec);
        }
    }

    fn after_trial(&mut self, rec: &mut Recorder) {
        for d in std::mem::take(&mut self.done) {
            let within =
                row_hashes(&d.out.relation).iter().all(|h| self.allowed[d.query].contains(h));
            if !within {
                rec.flag_wrong(format!(
                    "op {}: {} returned a row the oracle does not have",
                    d.op, self.queries[d.query]
                ));
            }
            let answered = d.out.ok && d.out.coverage.fraction() >= MIN_COVERAGE && within;
            rec.lat_ms.push(if answered { d.out.cost.latency } else { DEADLINE }.as_millis_f64());
            rec.book_read(&d.out, answered);
            if rec.samples_op(d.op) {
                rec.samples.push(Sample {
                    op: d.op,
                    query: self.queries[d.query].clone(),
                    relation: d.out.relation,
                    tuples: Vec::new(),
                });
            }
        }
        self.cluster.take_traces();
    }

    /// The heal: the crashes already scheduled play out, every peer
    /// revives, loss stops, repair gets `churn_heal_s` simulated seconds
    /// — then a write batch counts as successful if it was acknowledged
    /// *and* reads back in full.
    fn finish(&mut self, rec: &mut Recorder, measure_repair_lag: bool) {
        let now = self.cluster.net.now();
        let rest = self.churn.scheduled_until.saturating_sub(now) + SimTime::from_secs(1);
        self.cluster.settle(rest);
        let now = self.cluster.net.now();
        for i in 0..self.cluster.net.len() as u32 {
            self.cluster.net.schedule_up(NodeId(i), now);
        }
        self.cluster.net.set_loss_rate(0.0);

        let heal = self.sizes.churn_heal_s;
        let step = if measure_repair_lag { 10 } else { heal };
        let mut waited = 0;
        let mut durable = 0;
        let mut lag = heal as f64;
        while waited < heal {
            self.cluster.settle(SimTime::from_secs(step.min(heal - waited)));
            waited += step.min(heal - waited);
            durable = self.durable_batches();
            if durable == self.acked.len() {
                lag = lag.min(waited as f64);
            }
        }
        rec.repair_lag_sim_s = lag;
        rec.writes_durable = durable as u64;
        rec.succeeded += durable as u64;
    }

    fn world(&self) -> &PubWorld {
        &self.world
    }

    fn oracle(&self) -> &LocalEngine {
        &self.oracle
    }

    fn cluster(&mut self) -> &mut UniCluster<O> {
        &mut self.cluster
    }
}
