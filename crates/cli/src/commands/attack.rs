//! `veil attack` — run the Section III-E threat models against a fresh
//! overlay.

use super::CmdResult;
use crate::args::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use veil_core::experiment::{build_simulation, build_trust_graph};
use veil_core::scenario::{lower, Scenario};
use veil_privacy::knowledge::{audit, ObserverSet};
use veil_privacy::size_estimation::estimate_system_size;
use veil_privacy::timing_attack::detection_rate;
use veil_privacy::traffic::rotation_exposure;
use veil_privacy::vertex_cut;

/// The flags `veil attack` accepts; its USAGE block lists exactly these.
pub const FLAGS: &[&str] = &["nodes", "seed"];

/// `veil attack --nodes N [--seed S]`: the threats are measured on
/// [`super::base_scenario`] with every node always online, warmed up for
/// 60 periods.
pub fn run(args: &Args) -> CmdResult {
    args.check_known(FLAGS)?;
    let base = super::base_scenario();
    let scenario = Scenario {
        nodes: args.require("nodes", "integer")?,
        seed: args.get_or("seed", base.seed, "integer")?,
        horizon: 60.0,
        availability: 1.0,
        ..base
    };
    scenario.validate()?;
    let lowered = lower(&scenario)?;
    let (params, nodes, seed) = (lowered.params, scenario.nodes, scenario.seed);
    let trust = build_trust_graph(&params)?;
    let mut out = String::new();
    writeln!(
        out,
        "threat-model report for a {nodes}-node community (seed {seed})\n"
    )?;

    // Observer knowledge.
    writeln!(out, "[internal observers]")?;
    for k in [1usize, 5, nodes / 10] {
        let k = k.max(1).min(nodes);
        let report = audit(&trust, &ObserverSet::new(0..k));
        writeln!(
            out,
            "  {k:>4} colluding: know {:.1}% of nodes, {:.1}% of edges{}",
            100.0 * report.node_fraction,
            100.0 * report.edge_fraction,
            if report.is_vertex_cut {
                " (vertex cut)"
            } else {
                ""
            }
        )?;
    }

    // Vertex cuts.
    let cuts = vertex_cut::articulation_points(&trust);
    writeln!(
        out,
        "\n[vertex cuts] {} of {} nodes are articulation points of the trust graph",
        cuts.len(),
        nodes
    )?;

    // Timing attack.
    let mut sim = build_simulation(trust.clone(), &params, lowered.alpha)?;
    sim.run_until(lowered.horizon);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let (hits, trials) = detection_rate(&mut sim, 0, 1, 2.0, 15, &mut rng);
    writeln!(out, "\n[pseudonym-injection timing attack]")?;
    if trials > 0 {
        writeln!(
            out,
            "  two-round window: {hits}/{trials} detections ({:.0}%)",
            100.0 * hits as f64 / trials as f64
        )?;
    } else {
        writeln!(out, "  no eligible target pairs adjacent to observers 0/1")?;
    }

    // Traffic analysis.
    let exposure = rotation_exposure(&mut sim, 40.0);
    writeln!(out, "\n[external observer / traffic analysis]")?;
    writeln!(
        out,
        "  rotation factor over 40 sp: {:.2} ({:.1} distinct counterparties vs {:.1} concurrent links)",
        exposure.rotation_factor,
        exposure.mean_distinct_counterparties,
        exposure.mean_concurrent_degree
    )?;

    // Size estimation.
    let est = estimate_system_size(&mut sim, 0, 40.0, 2.0);
    writeln!(out, "\n[size estimation]")?;
    writeln!(
        out,
        "  single observer estimates {} of {} participants ({:.0}%)",
        est.estimated,
        est.actual,
        100.0 * est.recall()
    )?;
    Ok(out.trim_end().to_string())
}
