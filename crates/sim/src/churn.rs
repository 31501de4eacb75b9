//! The Yao et al. alternating-renewal churn model (ICNP'06), as adopted in
//! Section IV-B of the paper.
//!
//! Each node independently alternates between online and offline states;
//! the time spent in each state is drawn from a per-state distribution.
//! The paper gives every node the same mean online time `Ton` and mean
//! offline time `Toff`, fixes `Toff` (30 shuffle periods by default) and
//! tunes `Ton` to reach a target *availability* `α = Ton / (Ton + Toff)`.

use crate::dist::{Dist, DistKind, DurationDist};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Whether a node is currently reachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeState {
    /// The node participates in the protocol.
    Online,
    /// The node is unreachable; its local state is retained.
    Offline,
}

impl NodeState {
    /// The opposite state.
    pub fn flipped(self) -> NodeState {
        match self {
            NodeState::Online => NodeState::Offline,
            NodeState::Offline => NodeState::Online,
        }
    }

    /// `true` when online.
    pub fn is_online(self) -> bool {
        self == NodeState::Online
    }

    /// Stable lower-case name (observability seam: used as an event and
    /// metric label).
    pub fn as_str(self) -> &'static str {
        match self {
            NodeState::Online => "online",
            NodeState::Offline => "offline",
        }
    }
}

/// How node states are initialized at time zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum InitialState {
    /// Every node starts online (the paper's start-up transient: "all the
    /// nodes that are online when the experiment starts create their
    /// pseudonyms at the same time").
    AllOnline,
    /// Each node starts online independently with probability `α` — the
    /// stationary distribution of the on/off process.
    #[default]
    Stationary,
}

/// Churn parameters shared by all nodes of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Mean time spent online per session, in shuffle periods; `None`
    /// models permanently online nodes (availability 1).
    pub mean_online: Option<f64>,
    /// Mean time spent offline between sessions, in shuffle periods.
    pub mean_offline: f64,
    /// Distribution family for both durations (the paper: exponential).
    pub kind: DistKind,
    /// Initialization of node states at time zero.
    pub initial: InitialState,
}

impl ChurnConfig {
    /// Builds the paper's configuration: fixed `mean_offline`, online time
    /// chosen so that availability equals `alpha`.
    ///
    /// `alpha = 1.0` yields permanently online nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1` and `mean_offline > 0`.
    pub fn from_availability(alpha: f64, mean_offline: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "availability must be in (0, 1], got {alpha}"
        );
        assert!(
            mean_offline.is_finite() && mean_offline > 0.0,
            "mean offline time must be positive"
        );
        let mean_online = if alpha >= 1.0 {
            None
        } else {
            Some(alpha * mean_offline / (1.0 - alpha))
        };
        Self {
            mean_online,
            mean_offline,
            kind: DistKind::Exponential,
            initial: InitialState::Stationary,
        }
    }

    /// The long-run fraction of time a node is online,
    /// `α = Ton / (Ton + Toff)`.
    pub fn availability(&self) -> f64 {
        match self.mean_online {
            None => 1.0,
            Some(ton) => ton / (ton + self.mean_offline),
        }
    }

    /// Whether nodes never go offline.
    pub fn is_always_online(&self) -> bool {
        self.mean_online.is_none()
    }

    /// Replaces the duration-distribution family.
    pub fn with_kind(mut self, kind: DistKind) -> Self {
        self.kind = kind;
        self
    }

    /// Replaces the initial-state policy.
    pub fn with_initial(mut self, initial: InitialState) -> Self {
        self.initial = initial;
        self
    }
}

/// The on/off renewal process of a single node.
///
/// Event-driven usage: construct with [`ChurnProcess::new`], schedule the
/// returned delay, and on each transition event call
/// [`ChurnProcess::transition`] to flip the state and obtain the next delay.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use veil_sim::churn::{ChurnConfig, ChurnProcess, NodeState};
///
/// let cfg = ChurnConfig::from_availability(0.5, 30.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let (mut p, first) = ChurnProcess::new(&cfg, &mut rng);
/// assert!(first.is_some(), "churning nodes schedule a transition");
/// let before = p.state();
/// p.transition(&mut rng);
/// assert_eq!(p.state(), before.flipped());
/// ```
pub struct ChurnProcess {
    online_dist: Option<Dist>,
    offline_dist: Dist,
    state: NodeState,
    transitions: u64,
}

impl std::fmt::Debug for ChurnProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChurnProcess")
            .field("state", &self.state)
            .field("always_online", &self.online_dist.is_none())
            .finish()
    }
}

impl ChurnProcess {
    /// Creates the process and returns the delay until its first transition
    /// (`None` for permanently online nodes).
    pub fn new<R: Rng + ?Sized>(cfg: &ChurnConfig, rng: &mut R) -> (Self, Option<f64>) {
        let online_dist = cfg.mean_online.map(|m| cfg.kind.build(m));
        let offline_dist = cfg.kind.build(cfg.mean_offline);
        let state = match cfg.initial {
            InitialState::AllOnline => NodeState::Online,
            InitialState::Stationary => {
                if cfg.is_always_online() || rng.gen_bool(cfg.availability()) {
                    NodeState::Online
                } else {
                    NodeState::Offline
                }
            }
        };
        let mut process = Self {
            online_dist,
            offline_dist,
            state,
            transitions: 0,
        };
        let delay = process.sample_residence(rng);
        (process, delay)
    }

    /// Current state.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// Whether the node is online.
    pub fn is_online(&self) -> bool {
        self.state.is_online()
    }

    /// How many state changes this process has performed (natural
    /// transitions plus forced ones; observability seam, summed into the
    /// `sim.churn_transitions` counter).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    fn sample_residence<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        match self.state {
            NodeState::Online => self
                .online_dist
                .as_ref()
                .map(|d| d.sample(&mut as_core(rng))),
            NodeState::Offline => Some(self.offline_dist.sample(&mut as_core(rng))),
        }
    }

    /// Flips the state and returns the delay until the following transition
    /// (`None` if the node is now permanently online).
    ///
    /// # Panics
    ///
    /// Panics when called on a permanently online process — such a process
    /// never transitions.
    pub fn transition<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        assert!(
            self.online_dist.is_some(),
            "permanently online node has no transitions"
        );
        self.state = self.state.flipped();
        self.transitions += 1;
        self.sample_residence(rng)
    }

    /// Forces the process into `state` (failure injection: blackouts,
    /// coordinated reconnects) and returns a freshly sampled residence time
    /// for the new state (`None` when the node is permanently online and
    /// forced online — it will never transition naturally).
    ///
    /// Unlike [`ChurnProcess::transition`], this works on permanently
    /// online processes too: forcing one offline returns a residence delay
    /// drawn from the offline distribution.
    pub fn force_state<R: Rng + ?Sized>(&mut self, state: NodeState, rng: &mut R) -> Option<f64> {
        if self.state != state {
            self.transitions += 1;
        }
        self.state = state;
        self.sample_residence(rng)
    }
}

/// Adapts a generic `Rng` to the `dyn RngCore` the distribution trait needs.
fn as_core<R: Rng + ?Sized>(rng: &mut R) -> impl rand::RngCore + '_ {
    rng
}

/// Simulates one node's timeline up to `horizon`, returning the transition
/// instants and the states entered. Primarily for validating the model.
pub fn simulate_timeline<R: Rng + ?Sized>(
    cfg: &ChurnConfig,
    horizon: f64,
    rng: &mut R,
) -> Vec<(f64, NodeState)> {
    let (mut p, first) = ChurnProcess::new(cfg, rng);
    let mut out = vec![(0.0, p.state())];
    let Some(mut next) = first else {
        return out;
    };
    let mut t = next;
    while t < horizon {
        match p.transition(rng) {
            Some(d) => next = d,
            None => break,
        }
        out.push((t, p.state()));
        t += next;
    }
    out
}

/// Empirical availability of a timeline over `[0, horizon]`.
pub fn empirical_availability(timeline: &[(f64, NodeState)], horizon: f64) -> f64 {
    let mut online_time = 0.0;
    for (i, &(t, state)) in timeline.iter().enumerate() {
        let end = timeline.get(i + 1).map_or(horizon, |&(t2, _)| t2);
        if state.is_online() {
            online_time += (end.min(horizon) - t).max(0.0);
        }
    }
    online_time / horizon
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn availability_formula() {
        let cfg = ChurnConfig::from_availability(0.25, 30.0);
        assert!((cfg.availability() - 0.25).abs() < 1e-12);
        assert!((cfg.mean_online.unwrap() - 10.0).abs() < 1e-12);
        let full = ChurnConfig::from_availability(1.0, 30.0);
        assert!(full.is_always_online());
        assert_eq!(full.availability(), 1.0);
    }

    #[test]
    #[should_panic(expected = "availability")]
    fn rejects_zero_availability() {
        ChurnConfig::from_availability(0.0, 30.0);
    }

    #[test]
    fn always_online_never_transitions() {
        let cfg = ChurnConfig::from_availability(1.0, 30.0);
        let mut rng = StdRng::seed_from_u64(1);
        let (p, first) = ChurnProcess::new(&cfg, &mut rng);
        assert!(p.is_online());
        assert!(first.is_none());
    }

    #[test]
    fn transitions_alternate() {
        let cfg = ChurnConfig::from_availability(0.5, 30.0);
        let mut rng = StdRng::seed_from_u64(2);
        let (mut p, first) = ChurnProcess::new(&cfg, &mut rng);
        assert!(first.is_some());
        let mut prev = p.state();
        for _ in 0..20 {
            let d = p.transition(&mut rng);
            assert!(d.is_some());
            assert!(d.unwrap() >= 0.0);
            assert_eq!(p.state(), prev.flipped());
            prev = p.state();
        }
    }

    #[test]
    fn stationary_start_matches_alpha() {
        let cfg = ChurnConfig::from_availability(0.25, 30.0);
        let mut rng = StdRng::seed_from_u64(3);
        let online = (0..20_000)
            .filter(|_| ChurnProcess::new(&cfg, &mut rng).0.is_online())
            .count();
        let frac = online as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "fraction online {frac}");
    }

    #[test]
    fn all_online_start() {
        let cfg = ChurnConfig::from_availability(0.25, 30.0).with_initial(InitialState::AllOnline);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            assert!(ChurnProcess::new(&cfg, &mut rng).0.is_online());
        }
    }

    #[test]
    fn long_run_availability_converges() {
        let cfg = ChurnConfig::from_availability(0.5, 30.0);
        let mut rng = StdRng::seed_from_u64(5);
        let horizon = 200_000.0;
        let timeline = simulate_timeline(&cfg, horizon, &mut rng);
        let a = empirical_availability(&timeline, horizon);
        assert!((a - 0.5).abs() < 0.03, "empirical availability {a}");
    }

    #[test]
    fn pareto_churn_also_converges() {
        let cfg =
            ChurnConfig::from_availability(0.75, 30.0).with_kind(DistKind::Pareto { shape: 2.5 });
        let mut rng = StdRng::seed_from_u64(6);
        let horizon = 400_000.0;
        let timeline = simulate_timeline(&cfg, horizon, &mut rng);
        let a = empirical_availability(&timeline, horizon);
        assert!((a - 0.75).abs() < 0.05, "empirical availability {a}");
    }

    #[test]
    fn force_state_overrides_and_resamples() {
        let cfg = ChurnConfig::from_availability(0.5, 30.0);
        let mut rng = StdRng::seed_from_u64(8);
        let (mut p, _) = ChurnProcess::new(&cfg, &mut rng);
        let delay = p.force_state(NodeState::Offline, &mut rng);
        assert_eq!(p.state(), NodeState::Offline);
        assert!(delay.is_some());
        let delay = p.force_state(NodeState::Online, &mut rng);
        assert!(p.is_online());
        assert!(delay.is_some());
    }

    #[test]
    fn force_state_on_permanently_online_process() {
        let cfg = ChurnConfig::from_availability(1.0, 30.0);
        let mut rng = StdRng::seed_from_u64(9);
        let (mut p, first) = ChurnProcess::new(&cfg, &mut rng);
        assert!(first.is_none());
        // Can be forced offline (blackout) ...
        let delay = p.force_state(NodeState::Offline, &mut rng);
        assert!(!p.is_online());
        assert!(delay.is_some(), "offline residence is always sampleable");
        // ... and back online, where it stays forever.
        let delay = p.force_state(NodeState::Online, &mut rng);
        assert!(p.is_online());
        assert!(delay.is_none());
    }

    #[test]
    fn timeline_starts_at_zero_and_is_sorted() {
        let cfg = ChurnConfig::from_availability(0.5, 10.0);
        let mut rng = StdRng::seed_from_u64(7);
        let tl = simulate_timeline(&cfg, 1000.0, &mut rng);
        assert_eq!(tl[0].0, 0.0);
        for w in tl.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert_eq!(w[0].1, w[1].1.flipped(), "states must alternate");
        }
    }
}
