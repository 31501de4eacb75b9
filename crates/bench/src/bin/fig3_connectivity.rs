//! Figure 3: fraction of disconnected online nodes vs availability, for
//! trust graphs sampled with f = 1.0 and f = 0.5, compared against the
//! maintained overlay and an Erdős–Rényi reference graph.
//!
//! The figure is sixteen independent simulations, so it records no trace;
//! trace one run with `veil simulate --trace-out` (see EXPERIMENTS.md).

use veil_bench::{f3, paper_params, render_table, write_json, ALPHAS};
use veil_core::experiment::{availability_sweep, build_trust_graph_with_f};

fn main() {
    let params = paper_params();
    let mut results = Vec::new();
    for f in [1.0, 0.5] {
        let trust = build_trust_graph_with_f(&params, f).expect("trust graph");
        eprintln!(
            "trust graph f={f}: {} nodes, {} edges",
            trust.node_count(),
            trust.edge_count()
        );
        let sweep =
            availability_sweep(&trust, &params, &ALPHAS, false).expect("availability sweep");
        let rows: Vec<Vec<String>> = sweep
            .iter()
            .map(|p| {
                vec![
                    f3(p.alpha),
                    f3(p.trust_disconnected),
                    f3(p.overlay_disconnected),
                    f3(p.random_disconnected),
                ]
            })
            .collect();
        println!("\nFigure 3 (f = {f}): fraction of disconnected online nodes");
        println!(
            "{}",
            render_table(&["alpha", "trust graph", "overlay", "random graph"], &rows)
        );
        results.push((f, sweep));
    }
    write_json("fig3_connectivity", &results);
}
