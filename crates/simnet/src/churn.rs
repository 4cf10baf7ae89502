//! Churn schedules.
//!
//! The paper claims robustness "even in unreliable and highly dynamic
//! environments" (§3). The scale campaign (`BENCH_scale.json`) subjects
//! the overlay to fail-stop churn: nodes alternate between online sessions
//! and offline periods with exponentially distributed durations, the
//! standard model for P2P session behavior.

use rand::rngs::StdRng;
use rand::Rng;

use crate::fault::Window;
use crate::net::{NodeBehavior, NodeId, SimNet};
use crate::time::SimTime;

/// Parameters of an exponential on/off churn process.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Mean online session length.
    pub mean_session: SimTime,
    /// Mean offline duration.
    pub mean_downtime: SimTime,
    /// Fraction of nodes participating in churn (the rest stay up,
    /// modelling stable infrastructure peers).
    pub churn_fraction: f64,
}

impl ChurnConfig {
    /// A moderate PlanetLab-like churn: 30 min sessions, 5 min downtime.
    pub fn moderate() -> Self {
        ChurnConfig {
            mean_session: SimTime::from_secs(1800),
            mean_downtime: SimTime::from_secs(300),
            churn_fraction: 0.5,
        }
    }

    /// Heavy file-sharing-like churn: 10 min sessions, 2 min downtime,
    /// 80% of the population cycling. The scale campaign's stress
    /// setting — roughly 1 in 6 churning nodes is offline at any
    /// instant, and sessions are short enough that routing state decays
    /// between consecutive queries.
    pub fn heavy() -> Self {
        ChurnConfig {
            mean_session: SimTime::from_secs(600),
            mean_downtime: SimTime::from_secs(120),
            churn_fraction: 0.8,
        }
    }
}

/// Draws an exponential duration with the given mean.
fn exponential(rng: &mut StdRng, mean: SimTime) -> SimTime {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    SimTime::from_micros((-u.ln() * mean.as_micros() as f64) as u64)
}

/// Installs an on/off schedule for every churning node over `[0, horizon]`.
///
/// Nodes start online; the first crash of each node is delayed by one
/// session draw so the network begins fully converged.
pub fn install_churn<N: NodeBehavior>(
    net: &mut SimNet<N>,
    rng: &mut StdRng,
    cfg: &ChurnConfig,
    horizon: SimTime,
) -> Vec<NodeId> {
    let n = net.len();
    let mut churned = Vec::new();
    for i in 0..n {
        if rng.gen::<f64>() >= cfg.churn_fraction {
            continue;
        }
        let id = NodeId(i as u32);
        churned.push(id);
        let mut t = exponential(rng, cfg.mean_session);
        while t < horizon {
            net.schedule_down(id, t);
            t += exponential(rng, cfg.mean_downtime);
            if t >= horizon {
                break;
            }
            net.schedule_up(id, t);
            t += exponential(rng, cfg.mean_session);
        }
    }
    churned
}

/// Installs a correlated mass failure: `kill_fraction` of `island` —
/// typically one [`crate::fault::FaultPlan`] partition island, so the
/// crashes correlate with a connectivity fault — crash together at the
/// window's open and revive together at its close. Models the failure
/// domain the independent-churn model cannot: a rack power event or a
/// network-segment outage taking out many replicas of the same keys at
/// once. Victim selection draws from the seeded RNG (deterministic like
/// [`install_churn`]); returns the victims.
pub fn install_mass_failure<N: NodeBehavior>(
    net: &mut SimNet<N>,
    rng: &mut StdRng,
    island: &[NodeId],
    window: Window,
    kill_fraction: f64,
) -> Vec<NodeId> {
    assert!((0.0..=1.0).contains(&kill_fraction), "kill fraction out of range");
    let mut victims = Vec::new();
    for &id in island {
        if rng.gen::<f64>() < kill_fraction {
            victims.push(id);
            net.schedule_down(id, window.from);
            net.schedule_up(id, window.until);
        }
    }
    victims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::Effects;
    use crate::latency::ConstantLatency;
    use bytes::{Bytes, BytesMut};
    use rand::SeedableRng;
    use unistore_util::wire::{Wire, WireError};

    #[derive(Clone, Debug)]
    struct NoMsg;
    impl Wire for NoMsg {
        fn encode(&self, _b: &mut BytesMut) {}
        fn decode(_b: &mut Bytes) -> Result<Self, WireError> {
            Ok(NoMsg)
        }
        fn wire_size(&self) -> usize {
            0
        }
    }
    struct Idle;
    impl NodeBehavior for Idle {
        type Msg = NoMsg;
        type Out = ();
        fn on_message(&mut self, _n: SimTime, _f: NodeId, _m: NoMsg, _fx: &mut Effects<NoMsg, ()>) {
        }
    }

    #[test]
    fn exponential_mean_plausible() {
        let mut rng = StdRng::seed_from_u64(5);
        let mean = SimTime::from_secs(100);
        let mut acc = 0u64;
        let n = 2000;
        for _ in 0..n {
            acc += exponential(&mut rng, mean).as_micros();
        }
        let avg = acc as f64 / n as f64;
        let expect = mean.as_micros() as f64;
        assert!((avg - expect).abs() / expect < 0.1, "avg={avg} expect={expect}");
    }

    #[test]
    fn churn_toggles_nodes() {
        let mut net: SimNet<Idle> = SimNet::new(ConstantLatency(SimTime::ZERO), 0);
        for _ in 0..20 {
            net.add_node(Idle);
        }
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = ChurnConfig {
            mean_session: SimTime::from_secs(10),
            mean_downtime: SimTime::from_secs(10),
            churn_fraction: 1.0,
        };
        let churned = install_churn(&mut net, &mut rng, &cfg, SimTime::from_secs(100));
        assert_eq!(churned.len(), 20);
        net.run_until(SimTime::from_secs(50));
        let down = (0..20).filter(|&i| !net.is_up(NodeId(i))).count();
        assert!(down > 0, "some nodes should be offline mid-horizon");
        assert!(down < 20, "not all nodes should be offline");
    }

    #[test]
    fn heavy_is_harsher_than_moderate() {
        let h = ChurnConfig::heavy();
        let m = ChurnConfig::moderate();
        assert!(h.mean_session < m.mean_session);
        assert!(h.mean_downtime < m.mean_downtime);
        assert!(h.churn_fraction > m.churn_fraction);
    }

    #[test]
    fn mass_failure_kills_and_revives_together() {
        let mut net: SimNet<Idle> = SimNet::new(ConstantLatency(SimTime::ZERO), 0);
        for _ in 0..16 {
            net.add_node(Idle);
        }
        let island: Vec<NodeId> = (0..8).map(NodeId).collect();
        let window = Window::new(SimTime::from_secs(10), SimTime::from_secs(20));
        let mut rng = StdRng::seed_from_u64(4);
        let victims = install_mass_failure(&mut net, &mut rng, &island, window, 0.5);
        assert!(!victims.is_empty() && victims.len() < island.len(), "fraction, not all-or-none");
        assert!(victims.iter().all(|v| island.contains(v)), "victims drawn from the island");
        // Deterministic under the seeded RNG.
        let mut rng2 = StdRng::seed_from_u64(4);
        let mut net2: SimNet<Idle> = SimNet::new(ConstantLatency(SimTime::ZERO), 0);
        for _ in 0..16 {
            net2.add_node(Idle);
        }
        assert_eq!(victims, install_mass_failure(&mut net2, &mut rng2, &island, window, 0.5));
        // Inside the window every victim is down; after it, all revive.
        net.run_until(SimTime::from_secs(15));
        assert!(victims.iter().all(|&v| !net.is_up(v)));
        assert!((0..16).map(NodeId).filter(|v| !victims.contains(v)).all(|v| net.is_up(v)));
        net.run_until(SimTime::from_secs(25));
        assert!(victims.iter().all(|&v| net.is_up(v)));
        assert_eq!(net.metrics().downs, victims.len() as u64);
        assert_eq!(net.metrics().ups, victims.len() as u64);
    }

    #[test]
    fn zero_fraction_churns_nobody() {
        let mut net: SimNet<Idle> = SimNet::new(ConstantLatency(SimTime::ZERO), 0);
        for _ in 0..5 {
            net.add_node(Idle);
        }
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = ChurnConfig { churn_fraction: 0.0, ..ChurnConfig::moderate() };
        let churned = install_churn(&mut net, &mut rng, &cfg, SimTime::from_secs(1000));
        assert!(churned.is_empty());
    }
}
