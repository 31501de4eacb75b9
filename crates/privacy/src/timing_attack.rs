//! The pseudonym-injection timing attack (Section III-E2).
//!
//! "Suppose observer nodes `n` and `o` are adjacent to `a` and `b`,
//! respectively. Then `n` can produce a pseudonym `P` and send it only to
//! `a`. If `a` gossips `P` to `b` in the next gossip round and `b` gossips
//! `P` to `o` in the next round as well, then `n` and `o` can reasonably
//! assume that an overlay link exists between `a` and `b`."
//!
//! The paper argues the required chain of events is unlikely within a short
//! window; this module runs the attack against the real protocol so that
//! claim can be quantified: detection probability, arrival-time
//! distribution, and false-positive behaviour (the marked pseudonym
//! reaching `o` over paths that do not prove an `a`–`b` link).

use rand::Rng;
use serde::{Deserialize, Serialize};
use veil_core::pseudonym::Pseudonym;
use veil_core::simulation::Simulation;

/// Parameters of one pseudonym-injection attack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InjectionAttack {
    /// The observer adjacent to `target_a` that crafts and plants the
    /// marked pseudonym.
    pub observer_near_a: usize,
    /// The observer adjacent to `target_b` that watches for the marker.
    pub observer_near_b: usize,
    /// The first suspected endpoint; the marker is seeded into this node's
    /// cache (modelling a shuffle from the observer that offers only the
    /// marker).
    pub target_a: usize,
    /// The second suspected endpoint.
    pub target_b: usize,
    /// How long (in shuffle periods) the watching observer waits. The
    /// paper's reasoning uses two gossip rounds; larger windows raise both
    /// detections and false positives.
    pub window: f64,
    /// Sampling granularity for checking the observer's state.
    pub check_every: f64,
}

impl InjectionAttack {
    /// An attack with the paper's two-round window.
    pub fn two_rounds(
        observer_near_a: usize,
        observer_near_b: usize,
        target_a: usize,
        target_b: usize,
    ) -> Self {
        Self {
            observer_near_a,
            observer_near_b,
            target_a,
            target_b,
            window: 2.0,
            check_every: 0.25,
        }
    }
}

/// Result of one attack execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InjectionOutcome {
    /// Whether the marker reached the watching observer within the window.
    pub detected: bool,
    /// Time (periods after injection) at which the marker was first seen.
    pub arrival_time: Option<f64>,
    /// Ground truth: did an overlay link `a`–`b` exist at injection time?
    pub overlay_link_existed: bool,
    /// Ground truth: do `a` and `b` share a trust edge?
    pub trust_edge_exists: bool,
}

/// Runs the injection attack against a live simulation.
///
/// The marker pseudonym is owned by the injecting observer (so any node
/// sampling it would link back to the observer — exactly what a real
/// attacker would do). It is seeded into `target_a`'s cache at the current
/// simulation time, then the simulation advances in `check_every` steps
/// while the watcher's cache and sampler are monitored.
///
/// # Panics
///
/// Panics if any referenced node index is out of range, or if the attack
/// window or granularity is not positive.
pub fn run<R: Rng + ?Sized>(
    sim: &mut Simulation,
    attack: &InjectionAttack,
    rng: &mut R,
) -> InjectionOutcome {
    assert!(attack.window > 0.0, "attack window must be positive");
    assert!(
        attack.check_every > 0.0,
        "check granularity must be positive"
    );
    let n = sim.node_count();
    for idx in [
        attack.observer_near_a,
        attack.observer_near_b,
        attack.target_a,
        attack.target_b,
    ] {
        assert!(idx < n, "node index {idx} out of range");
    }
    let start = sim.now().as_f64();
    let marker: Pseudonym = sim.mint_pseudonym(attack.observer_near_a as u32);

    // Ground truth snapshot before the attack perturbs anything.
    let overlay = sim.overlay_graph();
    let overlay_link_existed = overlay.has_edge(attack.target_a, attack.target_b);
    let trust_edge_exists = sim.trust_graph().has_edge(attack.target_a, attack.target_b);

    // Plant the marker at `a` (a shuffle from the observer that offers
    // exactly one pseudonym). `absorb` handles a full cache gracefully.
    {
        let now = sim.now();
        let (node_a, arena) = sim.node_and_arena_mut(attack.target_a);
        node_a.cache.absorb(arena, &[marker], &[], None, now, rng);
    }

    let mut arrival_time = None;
    let mut t = start;
    let deadline = start + attack.window;
    while t < deadline && arrival_time.is_none() {
        t = (t + attack.check_every).min(deadline);
        sim.run_until(t);
        let watcher = sim.node(attack.observer_near_b);
        let arena = sim.arena_of(attack.observer_near_b);
        if watcher.cache.contains(arena, marker.id()) || watcher.sampler.contains(marker.id()) {
            arrival_time = Some(t - start);
        }
    }
    InjectionOutcome {
        detected: arrival_time.is_some(),
        arrival_time,
        overlay_link_existed,
        trust_edge_exists,
    }
}

/// Repeats the attack over `trials` different randomly chosen target pairs
/// adjacent to the observers and reports the detection rate — the
/// aggregate quantity the paper's "unlikely to occur" argument predicts to
/// be low for short windows.
///
/// Returns `(detections, trials_run)`.
pub fn detection_rate<R: Rng + ?Sized>(
    sim: &mut Simulation,
    observer_near_a: usize,
    observer_near_b: usize,
    window: f64,
    trials: usize,
    rng: &mut R,
) -> (usize, usize) {
    let neighbours_a: Vec<usize> = sim
        .trust_graph()
        .neighbors(observer_near_a)
        .iter()
        .map(|&v| v as usize)
        .collect();
    let neighbours_b: Vec<usize> = sim
        .trust_graph()
        .neighbors(observer_near_b)
        .iter()
        .map(|&v| v as usize)
        .collect();
    if neighbours_a.is_empty() || neighbours_b.is_empty() {
        return (0, 0);
    }
    let mut detections = 0;
    let mut run_count = 0;
    for _ in 0..trials {
        let a = neighbours_a[rng.gen_range(0..neighbours_a.len())];
        let b = neighbours_b[rng.gen_range(0..neighbours_b.len())];
        if a == b || a == observer_near_b || b == observer_near_a {
            continue;
        }
        let attack = InjectionAttack {
            observer_near_a,
            observer_near_b,
            target_a: a,
            target_b: b,
            window,
            check_every: 0.25,
        };
        let outcome = run(sim, &attack, rng);
        run_count += 1;
        if outcome.detected {
            detections += 1;
        }
    }
    (detections, run_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use veil_core::config::OverlayConfig;
    use veil_graph::generators;
    use veil_sim::churn::ChurnConfig;
    use veil_sim::rng::{derive_rng, Stream};

    fn sim(seed: u64, n: usize) -> Simulation {
        let mut rng = derive_rng(seed, Stream::Topology);
        let trust = generators::social_graph(n, 3, &mut rng).unwrap();
        let cfg = OverlayConfig {
            cache_size: 40,
            shuffle_length: 6,
            target_links: 10,
            ..OverlayConfig::default()
        };
        let churn = ChurnConfig::from_availability(1.0, 30.0);
        Simulation::new(trust, cfg, churn, seed).unwrap()
    }

    #[test]
    fn outcome_records_ground_truth() {
        let mut s = sim(1, 40);
        s.run_until(20.0);
        let g = s.trust_graph().clone();
        // Pick observers and adjacent targets deterministically.
        let n_obs = 0usize;
        let a = g.neighbors(n_obs)[0] as usize;
        let o_obs = (0..40).find(|&v| v != n_obs && v != a).unwrap();
        let b = g
            .neighbors(o_obs)
            .iter()
            .map(|&v| v as usize)
            .find(|&v| v != a && v != n_obs)
            .unwrap();
        let attack = InjectionAttack::two_rounds(n_obs, o_obs, a, b);
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = run(&mut s, &attack, &mut rng);
        assert_eq!(outcome.trust_edge_exists, g.has_edge(a, b));
        if outcome.detected {
            assert!(outcome.arrival_time.unwrap() <= attack.window + 1e-9);
        } else {
            assert!(outcome.arrival_time.is_none());
        }
    }

    #[test]
    fn short_window_detection_is_rare() {
        // The paper's core privacy claim: the two-round chain is unlikely.
        let mut s = sim(3, 60);
        s.run_until(30.0);
        let mut rng = StdRng::seed_from_u64(4);
        let (detections, trials) = detection_rate(&mut s, 0, 1, 2.0, 20, &mut rng);
        assert!(trials > 0);
        let rate = detections as f64 / trials as f64;
        assert!(
            rate < 0.5,
            "two-round detection rate {rate} suspiciously high"
        );
    }

    #[test]
    fn long_window_detects_more_than_short() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut short_hits = 0usize;
        let mut long_hits = 0usize;
        // Fresh simulation per window length so state is comparable.
        for (window, hits) in [(1.0, &mut short_hits), (30.0, &mut long_hits)] {
            let mut s = sim(6, 50);
            s.run_until(30.0);
            let (d, _) = detection_rate(&mut s, 0, 1, window, 12, &mut rng);
            *hits = d;
        }
        assert!(
            long_hits >= short_hits,
            "long window ({long_hits}) should detect at least as much as short ({short_hits})"
        );
        assert!(long_hits > 0, "a 30-period window should catch the marker");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_window() {
        let mut s = sim(7, 30);
        let attack = InjectionAttack {
            observer_near_a: 0,
            observer_near_b: 1,
            target_a: 2,
            target_b: 3,
            window: 0.0,
            check_every: 0.25,
        };
        let mut rng = StdRng::seed_from_u64(8);
        run(&mut s, &attack, &mut rng);
    }
}
