//! Patient support community: the paper's scenario of "a worldwide
//! community of patients with the same chronic illness trying to support
//! each other with information" — long-lived, privacy-critical, and grown
//! by invitation.
//!
//! This example walks the full methodology: grow the community with the
//! invitation-model f-sampler, run the overlay with different pseudonym
//! lifetimes, and show the privacy/robustness trade-off the paper sweeps
//! in Figure 7 — shorter pseudonym lifetimes give observers less to
//! correlate but cost connectivity under churn.
//!
//! ```sh
//! cargo run --release -p veil-core --example patient_community
//! ```

use veil_core::experiment::{build_simulation, build_trust_graph, ExperimentParams};
use veil_graph::metrics;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = ExperimentParams {
        nodes: 400,
        warmup: 200.0,
        seed: 11,
        source_multiplier: 25,
        ..ExperimentParams::default()
    };

    // Invitation models: f = 1.0 "everyone invites all their friends",
    // f = 0.5 "everyone invites some friends".
    for f in [1.0, 0.5] {
        let trust = build_trust_graph(&ExperimentParams {
            trust_f: f,
            ..base.clone()
        })?;
        println!(
            "\ninvitation model f = {f}: {} patients, {} trust ties (avg degree {:.1})",
            trust.node_count(),
            trust.edge_count(),
            trust.average_degree()
        );
        println!(
            "{:>22}  {:>14}  {:>14}",
            "pseudonym lifetime", "disconnected", "pseudonyms/day"
        );
        // Patients check in about twice a day: a shuffle period of ~30 min.
        // Lifetime ratios from the paper's Figure 7, at availability 0.25.
        for ratio in [Some(1.0), Some(3.0), Some(9.0), None] {
            let params = ExperimentParams {
                lifetime_ratio: ratio,
                ..base.clone()
            };
            let mut sim = build_simulation(trust.clone(), &params, 0.25)?;
            sim.run_until(params.warmup);
            let online = sim.online_mask();
            let overlay = sim.overlay_graph();
            let disc = metrics::fraction_disconnected(&overlay, &online);
            // Pseudonym turnover: how much material an observer could ever
            // correlate, expressed as fresh pseudonyms per node per 48 sp
            // ("per day" at 30-minute shuffle periods).
            let per_day = sim.pseudonyms_minted() as f64
                / sim.node_count() as f64
                / (sim.now().as_f64() / 48.0);
            let label = match ratio {
                Some(r) => format!("{} sp (r = {r})", r * params.mean_offline),
                None => "never expires".to_string(),
            };
            println!("{label:>22}  {:>13.1}%  {per_day:>14.2}", 100.0 * disc);
        }
    }
    println!(
        "\nShort lifetimes mint pseudonyms constantly (good against traffic\n\
         analysis, bounded replay defences) but leave rejoining patients\n\
         with expired links; r = 3 is the paper's sweet spot."
    );
    Ok(())
}
