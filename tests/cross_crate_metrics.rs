//! Cross-crate consistency: the same quantities computed through different
//! code paths must agree (graph metrics vs union-find, collector snapshots
//! vs direct measurement, histogram totals vs masks).

use veil_core::experiment::{build_simulation, build_trust_graph, ExperimentParams};
use veil_core::metrics::{degree_histogram, snapshot, Collector};
use veil_graph::metrics as gm;
use veil_graph::Graph;

fn params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        ..ExperimentParams::default()
    }
    .scaled_down(12)
}

/// Component sizes computed independently of BFS: a disjoint-set forest
/// with path halving, counted per root.
fn component_sizes_uf(g: &Graph) -> Vec<usize> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let n = g.node_count();
    let mut parent: Vec<usize> = (0..n).collect();
    for (a, b) in g.edges() {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        parent[ra] = rb;
    }
    let mut size = vec![0usize; n];
    for v in 0..n {
        size[find(&mut parent, v)] += 1;
    }
    size.into_iter().filter(|&s| s > 0).collect()
}

#[test]
fn bfs_and_union_find_component_counts_agree() {
    let p = params(1);
    let trust = build_trust_graph(&p).unwrap();
    assert_eq!(
        gm::component_count(&trust),
        component_sizes_uf(&trust).len()
    );
    let mut sim = build_simulation(trust, &p, 0.5).unwrap();
    sim.run_until(40.0);
    let overlay = sim.overlay_graph();
    assert_eq!(
        gm::component_count(&overlay),
        component_sizes_uf(&overlay).len()
    );
}

#[test]
fn largest_component_sizes_agree() {
    let p = params(2);
    let trust = build_trust_graph(&p).unwrap();
    assert_eq!(
        gm::largest_component_size_masked(&trust, None),
        component_sizes_uf(&trust).into_iter().max().unwrap_or(0)
    );
}

#[test]
fn snapshot_agrees_with_direct_measurement() {
    let p = params(3);
    let trust = build_trust_graph(&p).unwrap();
    let mut sim = build_simulation(trust.clone(), &p, 0.5).unwrap();
    sim.run_until(50.0);
    let snap = snapshot(&sim);
    let online = sim.online_mask();
    assert_eq!(snap.online_nodes, online.iter().filter(|&&b| b).count());
    let overlay = sim.overlay_graph();
    assert_eq!(
        snap.fraction_disconnected,
        gm::fraction_disconnected(&overlay, &online)
    );
    assert_eq!(
        snap.fraction_disconnected_trust,
        gm::fraction_disconnected(&trust, &online)
    );
}

#[test]
fn collector_series_end_matches_final_snapshot() {
    let p = params(4);
    let trust = build_trust_graph(&p).unwrap();
    let mut sim = build_simulation(trust, &p, 0.5).unwrap();
    let mut collector = Collector::new(10.0);
    collector.run(&mut sim, 50.0);
    let (t, v) = collector.connectivity().last().unwrap();
    assert_eq!(t, 50.0);
    assert_eq!(v, snapshot(&sim).fraction_disconnected);
}

#[test]
fn degree_histogram_total_equals_online_count() {
    let p = params(5);
    let trust = build_trust_graph(&p).unwrap();
    let mut sim = build_simulation(trust, &p, 0.4).unwrap();
    sim.run_until(60.0);
    let h = degree_histogram(&sim);
    assert_eq!(h.total() as usize, sim.online_count());
    // Mean masked degree must match a direct computation.
    let online = sim.online_mask();
    let overlay = sim.overlay_graph();
    let mut total_deg = 0usize;
    let mut count = 0usize;
    for v in 0..overlay.node_count() {
        if online[v] {
            total_deg += overlay
                .neighbors(v)
                .iter()
                .filter(|&&w| online[w as usize])
                .count();
            count += 1;
        }
    }
    let direct_mean = total_deg as f64 / count as f64;
    assert!((h.mean() - direct_mean).abs() < 1e-9);
}

#[test]
fn link_removal_counter_is_monotonic_and_consistent() {
    let p = params(6);
    let trust = build_trust_graph(&p).unwrap();
    let mut sim = build_simulation(trust, &p, 0.5).unwrap();
    let mut last = 0u64;
    for k in 1..=10 {
        sim.run_until(8.0 * k as f64);
        let now = sim.total_link_removals();
        assert!(now >= last, "removal counter went backwards");
        last = now;
    }
    // additions - removals == live links, per node.
    for v in 0..sim.node_count() {
        let s = &sim.node(v).sampler;
        assert_eq!(
            s.additions() - s.removals(),
            s.link_count() as u64,
            "node {v} counter imbalance"
        );
    }
}

#[test]
fn normalized_path_length_upper_bounds_raw_path_length() {
    let p = params(7);
    let trust = build_trust_graph(&p).unwrap();
    let raw = gm::average_path_length(&trust, None);
    let normalized = gm::normalized_avg_path_length(&trust, None);
    // With everything online in one component, normalization multiplies by
    // n / |LCC| >= 1.
    assert!(normalized >= raw - 1e-9);
}
