//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use veil_graph::sample::sample_trust_graph;
use veil_graph::{generators, metrics, Graph};

/// Strategy: a random simple graph given as (n, edge list).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..120);
        (Just(n), edges)
    })
}

fn build(n: usize, raw_edges: &[(usize, usize)]) -> Graph {
    let mut g = Graph::new(n);
    for &(a, b) in raw_edges {
        if a != b {
            let _ = g.add_edge(a, b);
        }
    }
    g
}

proptest! {
    #[test]
    fn degree_sum_is_twice_edge_count((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let degree_sum: usize = g.degrees().iter().sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn edges_iterator_matches_has_edge((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let listed: Vec<(usize, usize)> = g.edges().collect();
        prop_assert_eq!(listed.len(), g.edge_count());
        for &(a, b) in &listed {
            prop_assert!(a < b);
            prop_assert!(g.has_edge(a, b) && g.has_edge(b, a));
        }
    }

    #[test]
    fn remove_undoes_add((n, edges) in arb_graph()) {
        let mut g = build(n, &edges);
        let listed: Vec<(usize, usize)> = g.edges().collect();
        for &(a, b) in &listed {
            prop_assert!(g.remove_edge(a, b).unwrap());
        }
        prop_assert_eq!(g.edge_count(), 0);
        for v in 0..n {
            prop_assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn bfs_distances_are_symmetric((n, edges) in arb_graph(), probe in 0usize..40) {
        let g = build(n, &edges);
        let src = probe % n;
        let from_src = metrics::bfs_distances(&g, src);
        for (dst, &d) in from_src.iter().enumerate() {
            if d != metrics::UNREACHABLE {
                let back = metrics::bfs_distances(&g, dst);
                prop_assert_eq!(back[src], d);
            }
        }
    }

    #[test]
    fn component_labels_partition_consistently((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let (labels, count) = metrics::component_labels_masked(&g, None);
        // Labels are a partition: every vertex labelled, labels dense.
        for &l in &labels {
            prop_assert!(l < count);
        }
        // Adjacent vertices share labels.
        for (a, b) in g.edges() {
            prop_assert_eq!(labels[a], labels[b]);
        }
        // Label count matches BFS reachability from class representatives.
        let sizes = metrics::component_sizes_masked(&g, None);
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
    }

    #[test]
    fn fraction_disconnected_bounds((n, edges) in arb_graph(), mask_seed in prop::collection::vec(any::<bool>(), 40)) {
        let g = build(n, &edges);
        let online: Vec<bool> = (0..n).map(|v| mask_seed[v]).collect();
        let frac = metrics::fraction_disconnected(&g, &online);
        prop_assert!((0.0..=1.0).contains(&frac));
        // A fully connected graph has zero disconnection when all online.
        if metrics::is_connected(&g) && online.iter().all(|&b| b) {
            prop_assert_eq!(frac, 0.0);
        }
    }

    #[test]
    fn normalized_path_length_dominates_raw((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let raw = metrics::average_path_length(&g, None);
        let norm = metrics::normalized_avg_path_length(&g, None);
        prop_assert!(norm >= raw - 1e-9);
    }

    #[test]
    fn gnm_generator_is_exact(n in 2usize..50, m_frac in 0.0f64..1.0, seed in any::<u64>()) {
        let max_edges = n * (n - 1) / 2;
        let m = (m_frac * max_edges as f64) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_gnm(n, m, &mut rng).unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), m);
    }

    #[test]
    fn ba_graph_is_connected_with_min_degree(n in 5usize..100, m in 1usize..4, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(n, m, &mut rng).unwrap();
        prop_assert!(metrics::is_connected(&g));
        prop_assert!(g.degrees().iter().all(|&d| d >= m));
    }

    #[test]
    fn f_sample_is_induced_and_right_sized(
        target in 5usize..60,
        f in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let source = generators::social_graph(200, 3, &mut rng).unwrap();
        let s = sample_trust_graph(&source, target, f, &mut rng).unwrap();
        prop_assert_eq!(s.graph.node_count(), target);
        // Induced property, both directions.
        let mut index = vec![usize::MAX; source.node_count()];
        for (new, &old) in s.original_ids.iter().enumerate() {
            index[old] = new;
        }
        for (a, b) in s.graph.edges() {
            prop_assert!(source.has_edge(s.original_ids[a], s.original_ids[b]));
        }
        for (a, b) in source.edges() {
            if index[a] != usize::MAX && index[b] != usize::MAX {
                prop_assert!(s.graph.has_edge(index[a], index[b]));
            }
        }
    }

    #[test]
    fn core_numbers_bounded_by_degree((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let cores = metrics::core_numbers(&g);
        for (v, &core) in cores.iter().enumerate() {
            prop_assert!(core <= g.degree(v));
        }
        prop_assert_eq!(
            cores.iter().copied().max().unwrap_or(0),
            metrics::degeneracy(&g)
        );
        // The k-core subgraph (vertices with core >= k) has min degree >= k
        // within itself, for the maximum k.
        let k = metrics::degeneracy(&g);
        if k > 0 {
            let keep: Vec<bool> = (0..n).map(|v| cores[v] >= k).collect();
            for v in 0..n {
                if keep[v] {
                    let internal = g
                        .neighbors(v)
                        .iter()
                        .filter(|&&w| keep[w as usize])
                        .count();
                    prop_assert!(internal >= k, "vertex {} has {} < {}", v, internal, k);
                }
            }
        }
    }

    #[test]
    fn edge_list_round_trip((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let mut buf = Vec::new();
        veil_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let back = veil_graph::io::read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn clustering_is_a_fraction((n, edges) in arb_graph(), probe in 0usize..40) {
        let g = build(n, &edges);
        let c = metrics::local_clustering(&g, probe % n);
        prop_assert!((0.0..=1.0).contains(&c));
        let avg = metrics::average_clustering(&g);
        prop_assert!((0.0..=1.0).contains(&avg));
    }

    #[test]
    fn diameter_bounds_path_length((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let apl = metrics::average_path_length(&g, None);
        let diameter = metrics::diameter(&g) as f64;
        prop_assert!(apl <= diameter + 1e-9);
    }
}
