//! Reproducibility: every experiment artifact is a pure function of the
//! master seed; different seeds diverge; component streams are independent.

use veil_core::experiment::{
    availability_point, build_simulation, build_trust_graph, sweep, ExperimentParams,
};
use veil_graph::generators;
use veil_sim::rng::{derive_rng, Stream};

fn params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        ..ExperimentParams::default()
    }
    .scaled_down(12)
}

#[test]
fn trust_graph_is_seed_deterministic() {
    let a = build_trust_graph(&params(7)).unwrap();
    let b = build_trust_graph(&params(7)).unwrap();
    assert_eq!(a, b);
    let c = build_trust_graph(&params(8)).unwrap();
    assert_ne!(a, c);
}

#[test]
fn full_simulation_replays_identically() {
    let p = params(9);
    let trust = build_trust_graph(&p).unwrap();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut sim = build_simulation(trust.clone(), &p, 0.5).unwrap();
        sim.run_until(80.0);
        runs.push((
            sim.overlay_graph(),
            sim.online_mask(),
            sim.pseudonyms_minted(),
            sim.total_link_removals(),
        ));
    }
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn incremental_and_single_shot_runs_agree() {
    let p = params(10);
    let trust = build_trust_graph(&p).unwrap();
    let mut one_shot = build_simulation(trust.clone(), &p, 0.5).unwrap();
    one_shot.run_until(60.0);
    let mut stepped = build_simulation(trust, &p, 0.5).unwrap();
    for k in 1..=20 {
        stepped.run_until(3.0 * k as f64);
    }
    assert_eq!(one_shot.overlay_graph(), stepped.overlay_graph());
    assert_eq!(one_shot.online_mask(), stepped.online_mask());
    assert_eq!(one_shot.pseudonyms_minted(), stepped.pseudonyms_minted());
}

#[test]
fn sweep_results_are_reproducible() {
    let p = params(11);
    let trust = build_trust_graph(&p).unwrap();
    let run = || {
        sweep(&[0.5], p.overlay.parallelism, |&alpha| {
            availability_point(&trust, &p, alpha, false)
        })
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn rng_streams_are_isolated() {
    // Drawing from one node's stream must not perturb another's.
    use rand::Rng;
    let mut a1 = derive_rng(5, Stream::Protocol(1));
    let mut b = derive_rng(5, Stream::Protocol(2));
    let b_first: u64 = b.gen();
    let _: [u64; 16] = std::array::from_fn(|_| a1.gen());
    let mut b2 = derive_rng(5, Stream::Protocol(2));
    assert_eq!(b_first, b2.gen::<u64>());
}

#[test]
fn generators_are_seed_deterministic_across_models() {
    let mut r1 = derive_rng(3, Stream::Topology);
    let mut r2 = derive_rng(3, Stream::Topology);
    assert_eq!(
        generators::erdos_renyi_gnm(200, 400, &mut r1).unwrap(),
        generators::erdos_renyi_gnm(200, 400, &mut r2).unwrap()
    );
    assert_eq!(
        generators::watts_strogatz(100, 4, 0.2, &mut r1).unwrap(),
        generators::watts_strogatz(100, 4, 0.2, &mut r2).unwrap()
    );
}
