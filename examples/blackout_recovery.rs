//! Blackout recovery: a correlated failure (regional outage) hits half the
//! community, and the example follows what it does to dissemination.
//!
//! Independent churn — the paper's model — is kind: failures are spread
//! out. A correlated blackout is the harsher test: many nodes vanish at
//! once and return as a flash crowd. This example shows (a) the overlay's
//! connectivity during and after the outage versus the bare trust graph,
//! and (b) the coverage of an anonymous flood — one that uses pseudonym
//! links only — from the best-connected online member. Trusted links heal
//! the moment power returns; pseudonym links must be re-gossiped, so the
//! anonymous coverage is what the outage actually damages.
//!
//! ```sh
//! cargo run --release -p veil-core --example blackout_recovery
//! ```

use veil_core::dissemination;
use veil_core::experiment::{build_simulation, build_trust_graph, ExperimentParams};
use veil_core::Simulation;
use veil_graph::{metrics, Graph};

/// Flood coverage over the pseudonym links alone, from the online member
/// with the most trusted contacts; `0` when nobody is online.
fn anonymous_coverage(sim: &Simulation, trust: &Graph) -> f64 {
    let online = sim.online_mask();
    (0..sim.node_count())
        .filter(|&v| online[v])
        .max_by_key(|&v| trust.degree(v))
        .map_or(0.0, |source| {
            dissemination::flood(&sim.pseudonym_graph(), &online, source).coverage()
        })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = ExperimentParams {
        nodes: 300,
        warmup: 60.0,
        seed: 31,
        source_multiplier: 25,
        ..ExperimentParams::default()
    };
    let trust = build_trust_graph(&params)?;
    let mut sim = build_simulation(trust.clone(), &params, 1.0)?;
    sim.run_until(params.warmup);
    let before = anonymous_coverage(&sim, &trust);
    println!(
        "community of {} members, overlay converged ({} overlay edges)",
        sim.node_count(),
        sim.overlay_graph().edge_count()
    );
    println!(
        "an anonymous flood reaches {:.1}% of online members before the outage",
        100.0 * before
    );

    // Regional blackout: nodes 0..150 lose power for 20 periods.
    let victims: Vec<usize> = (0..150).collect();
    sim.inject_blackout(&victims, 20.0);
    println!(
        "\n*** blackout: {} members offline for 20 periods ***\n",
        victims.len()
    );

    println!(
        "{:>10}  {:>8}  {:>18}  {:>18}  {:>14}",
        "time (sp)", "online", "overlay disc.", "trust disc.", "anon. reach"
    );
    let t0 = sim.now().as_f64();
    let mut after = before;
    let mut worst = (before, t0);
    for step in 1..=10 {
        let t = t0 + step as f64 * 4.0;
        sim.run_until(t);
        let online = sim.online_mask();
        let overlay = sim.overlay_graph();
        after = anonymous_coverage(&sim, &trust);
        if after < worst.0 {
            worst = (after, t);
        }
        println!(
            "{t:>10.0}  {:>8}  {:>17.1}%  {:>17.1}%  {:>13.1}%",
            sim.online_count(),
            100.0 * metrics::fraction_disconnected(&overlay, &online),
            100.0 * metrics::fraction_disconnected(&trust, &online),
            100.0 * after,
        );
    }

    println!(
        "\nanonymous reach fell to {:.1}% at t = {:.0} and stands at {:.1}% \
         20 periods after power returned",
        100.0 * worst.0,
        worst.1,
        100.0 * after
    );
    Ok(())
}
