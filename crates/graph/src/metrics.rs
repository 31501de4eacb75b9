//! Robustness metrics from Section IV-C of the paper.
//!
//! All metrics treat the graph as undirected ("since all communication
//! through overlay links can be bidirectional, we use undirected-graph
//! metrics"). Functions with a `_masked` suffix consider only the vertices
//! whose mask entry is `true` (the *online* nodes), evaluating the induced
//! subgraph without materializing it.

use crate::graph::Graph;
use std::collections::VecDeque;
use veil_metrics::Histogram;

/// Distance value marking an unreachable vertex in BFS output.
pub const UNREACHABLE: u32 = u32::MAX;

/// Labels every vertex with a component id in `0..component_count`.
///
/// Masked-out vertices receive the label `usize::MAX` and count as absent.
///
/// # Panics
///
/// Panics if `mask` is `Some` and its length differs from the node count.
pub fn component_labels_masked(g: &Graph, mask: Option<&[bool]>) -> (Vec<usize>, usize) {
    if let Some(m) = mask {
        assert_eq!(m.len(), g.node_count(), "mask length mismatch");
    }
    let n = g.node_count();
    let present = |v: usize| mask.is_none_or(|m| m[v]);
    let mut labels = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if labels[start] != usize::MAX || !present(start) {
            continue;
        }
        labels[start] = next;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                let w = w as usize;
                if present(w) && labels[w] == usize::MAX {
                    labels[w] = next;
                    queue.push_back(w);
                }
            }
        }
        next += 1;
    }
    (labels, next)
}

/// Labels every vertex with a component id (no mask).
pub fn component_labels(g: &Graph) -> (Vec<usize>, usize) {
    component_labels_masked(g, None)
}

/// Number of connected components.
pub fn component_count(g: &Graph) -> usize {
    component_labels(g).1
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    component_count(g) <= 1
}

/// Sizes of all connected components among masked-in vertices, descending.
pub fn component_sizes_masked(g: &Graph, mask: Option<&[bool]>) -> Vec<usize> {
    let (labels, count) = component_labels_masked(g, mask);
    let mut sizes = vec![0usize; count];
    for &l in &labels {
        if l != usize::MAX {
            sizes[l] += 1;
        }
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

/// Size of the largest connected component among masked-in vertices.
pub fn largest_component_size_masked(g: &Graph, mask: Option<&[bool]>) -> usize {
    component_sizes_masked(g, mask)
        .first()
        .copied()
        .unwrap_or(0)
}

/// Membership mask of the largest connected component among online vertices.
///
/// Ties are broken toward the component discovered first. Returns an
/// all-`false` mask when no vertex is online.
pub fn largest_component_mask(g: &Graph, mask: Option<&[bool]>) -> Vec<bool> {
    let (labels, count) = component_labels_masked(g, mask);
    if count == 0 {
        return vec![false; g.node_count()];
    }
    let mut sizes = vec![0usize; count];
    for &l in &labels {
        if l != usize::MAX {
            sizes[l] += 1;
        }
    }
    let best = sizes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .expect("non-zero component count");
    labels.iter().map(|&l| l == best).collect()
}

/// Fraction of *online* vertices that are not in the largest connected
/// component of the online-induced subgraph — the paper's connectivity
/// metric (Figures 3, 7 and 8).
///
/// Returns `0.0` when no vertex is online (nothing is disconnected).
pub fn fraction_disconnected(g: &Graph, online: &[bool]) -> f64 {
    let online_count = online.iter().filter(|&&b| b).count();
    if online_count == 0 {
        return 0.0;
    }
    let largest = largest_component_size_masked(g, Some(online));
    (online_count - largest) as f64 / online_count as f64
}

/// BFS distances from `src` to every vertex, `UNREACHABLE` when there is no
/// path within the masked-in subgraph.
///
/// # Panics
///
/// Panics if `src` is out of range, masked out, or the mask length is wrong.
pub fn bfs_distances_masked(g: &Graph, src: usize, mask: Option<&[bool]>) -> Vec<u32> {
    if let Some(m) = mask {
        assert_eq!(m.len(), g.node_count(), "mask length mismatch");
        assert!(m[src], "BFS source must be online");
    }
    let present = |v: usize| mask.is_none_or(|m| m[v]);
    let mut dist = vec![UNREACHABLE; g.node_count()];
    dist[src] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let d = dist[v];
        for &w in g.neighbors(v) {
            let w = w as usize;
            if present(w) && dist[w] == UNREACHABLE {
                dist[w] = d + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// BFS distances from `src` (no mask).
pub fn bfs_distances(g: &Graph, src: usize) -> Vec<u32> {
    bfs_distances_masked(g, src, None)
}

/// Average shortest-path length inside the largest connected component of
/// the online-induced subgraph, over all ordered reachable pairs.
///
/// Returns `0.0` when the component has fewer than two vertices.
pub fn average_path_length(g: &Graph, online: Option<&[bool]>) -> f64 {
    let lcc = largest_component_mask(g, online);
    let members: Vec<usize> = (0..g.node_count()).filter(|&v| lcc[v]).collect();
    if members.len() < 2 {
        return 0.0;
    }
    let mut sum = 0u64;
    let mut pairs = 0u64;
    for &src in &members {
        let dist = bfs_distances_masked(g, src, Some(&lcc));
        for &dst in &members {
            if dst != src {
                debug_assert_ne!(dist[dst], UNREACHABLE, "LCC must be connected");
                sum += dist[dst] as u64;
                pairs += 1;
            }
        }
    }
    sum as f64 / pairs as f64
}

/// The paper's *normalized path length* (Section IV-C): the average path
/// length within the largest online component, divided by the size of that
/// component and multiplied by the total number of vertices (including
/// offline ones).
///
/// This penalizes heavily partitioned graphs whose largest component — and
/// hence whose raw average path length — is misleadingly small.
pub fn normalized_avg_path_length(g: &Graph, online: Option<&[bool]>) -> f64 {
    let lcc_size = largest_component_size_masked(g, online);
    if lcc_size < 2 {
        return 0.0;
    }
    let apl = average_path_length(g, online);
    apl * g.node_count() as f64 / lcc_size as f64
}

/// Degree histogram over the masked-in vertices, counting only edges whose
/// both endpoints are masked in (Figure 5 considers online nodes only).
pub fn degree_histogram(g: &Graph, online: Option<&[bool]>) -> Histogram {
    let present = |v: usize| online.is_none_or(|m| m[v]);
    let mut h = Histogram::new();
    for v in 0..g.node_count() {
        if !present(v) {
            continue;
        }
        let deg = g
            .neighbors(v)
            .iter()
            .filter(|&&w| present(w as usize))
            .count();
        h.record(deg);
    }
    h
}

/// Local clustering coefficient of vertex `v`: the fraction of neighbour
/// pairs that are themselves adjacent. `0.0` for degree below 2.
pub fn local_clustering(g: &Graph, v: usize) -> f64 {
    let nbrs = g.neighbors(v);
    let d = nbrs.len();
    if d < 2 {
        return 0.0;
    }
    let mut closed = 0usize;
    for (i, &a) in nbrs.iter().enumerate() {
        for &b in &nbrs[i + 1..] {
            if g.has_edge(a as usize, b as usize) {
                closed += 1;
            }
        }
    }
    2.0 * closed as f64 / (d * (d - 1)) as f64
}

/// Average of the local clustering coefficients over all vertices.
pub fn average_clustering(g: &Graph) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 0.0;
    }
    (0..n).map(|v| local_clustering(g, v)).sum::<f64>() / n as f64
}

/// Diameter (longest shortest path) of the largest connected component.
///
/// Returns `0` for graphs with fewer than two connected vertices.
pub fn diameter(g: &Graph) -> u32 {
    let lcc = largest_component_mask(g, None);
    (0..g.node_count())
        .filter(|&v| lcc[v])
        .map(|v| {
            let dist = bfs_distances_masked(g, v, Some(&lcc));
            dist.iter()
                .enumerate()
                .filter(|&(w, &d)| lcc[w] && d != UNREACHABLE)
                .map(|(_, &d)| d)
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0)
}

/// Core number of every vertex: the largest `k` such that the vertex
/// belongs to the `k`-core (the maximal subgraph of minimum degree `k`).
/// Computed by iterative minimum-degree peeling in `O(n + m)`.
///
/// High-core vertices form the densely interconnected backbone that keeps
/// an overlay together under churn; a trust graph whose cores are shallow
/// partitions easily, which is the structural weakness the paper's overlay
/// repairs.
pub fn core_numbers(g: &Graph) -> Vec<usize> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut degree = g.degrees();
    let max_degree = degree.iter().copied().max().unwrap_or(0);
    // Bucket sort vertices by current degree (Batagelj–Zaversnik).
    let mut bins = vec![0usize; max_degree + 2];
    for &d in &degree {
        bins[d] += 1;
    }
    let mut start = 0usize;
    for bin in bins.iter_mut() {
        let count = *bin;
        *bin = start;
        start += count;
    }
    let mut position = vec![0usize; n];
    let mut order = vec![0usize; n];
    for v in 0..n {
        position[v] = bins[degree[v]];
        order[position[v]] = v;
        bins[degree[v]] += 1;
    }
    // Restore bin starts (they were advanced while placing vertices).
    for d in (1..bins.len()).rev() {
        bins[d] = bins[d - 1];
    }
    bins[0] = 0;
    // Peel in current-degree order; after processing, degree[v] is v's
    // core number.
    for i in 0..n {
        let v = order[i];
        for &w in g.neighbors(v) {
            let w = w as usize;
            if degree[w] > degree[v] {
                // Move w to the front of its bucket, then shrink it.
                let dw = degree[w];
                let pw = position[w];
                let ps = bins[dw];
                let s = order[ps];
                if w != s {
                    order[pw] = s;
                    order[ps] = w;
                    position[w] = ps;
                    position[s] = pw;
                }
                bins[dw] += 1;
                degree[w] -= 1;
            }
        }
    }
    degree
}

/// The degeneracy of the graph: the largest `k` with a non-empty `k`-core.
pub fn degeneracy(g: &Graph) -> usize {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

/// Articulation points (cut vertices) of the graph, computed with an
/// iterative Tarjan lowpoint DFS in `O(n + m)`.
///
/// A vertex is an articulation point iff removing it increases the number
/// of connected components. These are exactly the single nodes whose
/// compromise enables the paper's Section III-E3 vertex-cut attack — and
/// whose churn partitions a bare trust-graph overlay.
pub fn articulation_points(g: &Graph) -> Vec<usize> {
    let n = g.node_count();
    let mut disc = vec![0u32; n]; // 0 = unvisited; otherwise discovery time + 1
    let mut low = vec![0u32; n];
    let mut is_cut = vec![false; n];
    let mut timer = 1u32;
    // Explicit DFS stack: (vertex, parent, index into its adjacency list).
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();
    for root in 0..n {
        if disc[root] != 0 {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        let mut root_children = 0usize;
        stack.push((root, usize::MAX, 0));
        while let Some(&mut (v, parent, ref mut idx)) = stack.last_mut() {
            if *idx < g.neighbors(v).len() {
                let w = g.neighbors(v)[*idx] as usize;
                *idx += 1;
                if disc[w] == 0 {
                    disc[w] = timer;
                    low[w] = timer;
                    timer += 1;
                    if v == root {
                        root_children += 1;
                    }
                    stack.push((w, v, 0));
                } else if w != parent {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                stack.pop();
                if let Some(&mut (p, _, _)) = stack.last_mut() {
                    low[p] = low[p].min(low[v]);
                    if p != root && low[v] >= disc[p] {
                        is_cut[p] = true;
                    }
                }
            }
        }
        is_cut[root] = root_children > 1;
    }
    (0..n).filter(|&v| is_cut[v]).collect()
}

/// Bridges (cut edges) of the graph, via the same lowpoint DFS: an edge
/// `(v, w)` with `w` a DFS child is a bridge iff `low[w] > disc[v]`.
///
/// Returned as `(a, b)` pairs with `a < b`, in ascending order.
pub fn bridges(g: &Graph) -> Vec<(usize, usize)> {
    let n = g.node_count();
    let mut disc = vec![0u32; n];
    let mut low = vec![0u32; n];
    let mut timer = 1u32;
    let mut out = Vec::new();
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();
    for root in 0..n {
        if disc[root] != 0 {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        stack.push((root, usize::MAX, 0));
        while let Some(&mut (v, parent, ref mut idx)) = stack.last_mut() {
            if *idx < g.neighbors(v).len() {
                let w = g.neighbors(v)[*idx] as usize;
                *idx += 1;
                if disc[w] == 0 {
                    disc[w] = timer;
                    low[w] = timer;
                    timer += 1;
                    stack.push((w, v, 0));
                } else if w != parent {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                stack.pop();
                if let Some(&mut (p, _, _)) = stack.last_mut() {
                    low[p] = low[p].min(low[v]);
                    if low[v] > disc[p] {
                        out.push((p.min(v), p.max(v)));
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Pearson degree assortativity: correlation between the degrees of the two
/// endpoints over all edges. Positive for social graphs, ~0 for ER graphs.
///
/// Returns `0.0` for graphs without edges or with constant degrees.
pub fn degree_assortativity(g: &Graph) -> f64 {
    let mut sum_xy = 0.0;
    let mut sum_x = 0.0;
    let mut sum_x2 = 0.0;
    let mut m = 0.0;
    for (a, b) in g.edges() {
        let (da, db) = (g.degree(a) as f64, g.degree(b) as f64);
        // Each undirected edge contributes both orientations.
        sum_xy += 2.0 * da * db;
        sum_x += da + db;
        sum_x2 += da * da + db * db;
        m += 2.0;
    }
    if m == 0.0 {
        return 0.0;
    }
    let mean = sum_x / m;
    let var = sum_x2 / m - mean * mean;
    if var.abs() < 1e-12 {
        return 0.0;
    }
    (sum_xy / m - mean * mean) / var
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn components_of_disjoint_paths() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let (labels, count) = component_labels(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[0]);
        assert_eq!(component_sizes_masked(&g, None), vec![3, 2, 1]);
    }

    #[test]
    fn mask_splits_components() {
        // Path 0-1-2-3; masking out 1 leaves {0}, {2,3}.
        let g = generators::path(4);
        let mask = [true, false, true, true];
        let (_, count) = component_labels_masked(&g, Some(&mask));
        assert_eq!(count, 2);
        assert_eq!(largest_component_size_masked(&g, Some(&mask)), 2);
    }

    #[test]
    fn fraction_disconnected_cases() {
        let g = generators::path(4);
        assert_eq!(fraction_disconnected(&g, &[true; 4]), 0.0);
        // 0 | 2-3 online: largest component 2 of 3 online.
        let frac = fraction_disconnected(&g, &[true, false, true, true]);
        assert!((frac - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(fraction_disconnected(&g, &[false; 4]), 0.0);
    }

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable_marked() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    #[should_panic(expected = "online")]
    fn bfs_from_offline_source_panics() {
        let g = generators::path(3);
        bfs_distances_masked(&g, 0, Some(&[false, true, true]));
    }

    #[test]
    fn path_length_of_known_graphs() {
        // Complete graph: every pair at distance 1.
        let k5 = generators::complete(5);
        assert!((average_path_length(&k5, None) - 1.0).abs() < 1e-12);
        // Path on 3: distances 1,2,1 -> mean 4/3.
        let p3 = generators::path(3);
        assert!((average_path_length(&p3, None) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_path_length_penalizes_partitioning() {
        // A 10-cycle split into two 5-paths by masking two opposite nodes.
        let g = generators::cycle(10);
        let full = normalized_avg_path_length(&g, None);
        let mut mask = vec![true; 10];
        mask[0] = false;
        mask[5] = false;
        let partitioned = normalized_avg_path_length(&g, Some(&mask));
        // LCC shrinks to 4 of 10 nodes, so the multiplier 10/4 dominates.
        assert!(partitioned > full);
    }

    #[test]
    fn normalized_path_length_of_tiny_component_is_zero() {
        let g = Graph::new(5);
        assert_eq!(normalized_avg_path_length(&g, None), 0.0);
    }

    #[test]
    fn degree_histogram_masked() {
        let g = generators::star(4);
        let h = degree_histogram(&g, None);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(1), 3);
        // Hub offline: remaining leaves have masked degree 0.
        let h2 = degree_histogram(&g, Some(&[false, true, true, true]));
        assert_eq!(h2.count(0), 3);
        assert_eq!(h2.total(), 3);
    }

    #[test]
    fn clustering_of_triangle_and_path() {
        let tri = generators::cycle(3);
        assert!((average_clustering(&tri) - 1.0).abs() < 1e-12);
        let p = generators::path(3);
        assert_eq!(average_clustering(&p), 0.0);
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&generators::path(6)), 5);
        assert_eq!(diameter(&generators::cycle(6)), 3);
        assert_eq!(diameter(&Graph::new(3)), 0);
    }

    #[test]
    fn assortativity_of_star_is_negative() {
        let g = generators::star(10);
        assert!(degree_assortativity(&g) < 0.0);
    }

    #[test]
    fn assortativity_of_regular_graph_is_zero() {
        let g = generators::cycle(10);
        assert_eq!(degree_assortativity(&g), 0.0);
    }

    #[test]
    fn largest_component_mask_empty_graph() {
        let g = Graph::new(0);
        assert!(largest_component_mask(&g, None).is_empty());
        assert!(is_connected(&g));
    }

    /// Oracle: articulation points by definition (remove and recount).
    /// Removing an isolated vertex lowers the count, a leaf keeps it equal,
    /// and only a true cut vertex raises it.
    fn naive_articulation_points(g: &Graph) -> Vec<usize> {
        let base = component_count(g);
        (0..g.node_count())
            .filter(|&v| {
                let keep: Vec<bool> = (0..g.node_count()).map(|u| u != v).collect();
                let (_, count) = component_labels_masked(g, Some(&keep));
                count > base
            })
            .collect()
    }

    #[test]
    fn articulation_points_of_known_graphs() {
        assert_eq!(articulation_points(&generators::path(5)), vec![1, 2, 3]);
        assert!(articulation_points(&generators::cycle(6)).is_empty());
        assert_eq!(articulation_points(&generators::star(5)), vec![0]);
        let g = generators::two_cliques_bridge(4, 3);
        assert_eq!(articulation_points(&g), vec![3, 4]);
        assert!(articulation_points(&generators::complete(6)).is_empty());
        assert!(articulation_points(&Graph::new(3)).is_empty());
    }

    #[test]
    fn articulation_points_match_naive_oracle() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::erdos_renyi_gnm(30, 35, &mut rng).unwrap();
            let fast = articulation_points(&g);
            let naive = naive_articulation_points(&g);
            assert_eq!(fast, naive, "seed {seed}");
        }
    }

    #[test]
    fn bridges_of_known_graphs() {
        assert_eq!(bridges(&generators::path(4)), vec![(0, 1), (1, 2), (2, 3)]);
        assert!(bridges(&generators::cycle(5)).is_empty());
        let g = generators::two_cliques_bridge(4, 3);
        assert_eq!(bridges(&g), vec![(3, 4)]);
        assert_eq!(bridges(&generators::star(4)), vec![(0, 1), (0, 2), (0, 3)]);
    }

    /// Oracle: core numbers by repeated minimum-degree peeling.
    fn naive_core_numbers(g: &Graph) -> Vec<usize> {
        let n = g.node_count();
        let mut core = vec![0usize; n];
        let mut alive = vec![true; n];
        let mut deg = g.degrees();
        for _ in 0..n {
            let v = (0..n)
                .filter(|&v| alive[v])
                .min_by_key(|&v| deg[v])
                .expect("vertices remain");
            core[v] = deg[v];
            alive[v] = false;
            for &w in g.neighbors(v) {
                let w = w as usize;
                if alive[w] && deg[w] > deg[v] {
                    deg[w] -= 1;
                }
            }
        }
        core
    }

    #[test]
    fn core_numbers_of_known_graphs() {
        assert_eq!(core_numbers(&generators::complete(5)), vec![4; 5]);
        assert_eq!(core_numbers(&generators::cycle(6)), vec![2; 6]);
        let star = generators::star(5);
        assert_eq!(core_numbers(&star), vec![1; 5]);
        assert_eq!(degeneracy(&generators::complete(4)), 3);
        assert_eq!(degeneracy(&Graph::new(3)), 0);
        assert!(core_numbers(&Graph::new(0)).is_empty());
    }

    #[test]
    fn core_numbers_match_peeling_oracle() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for seed in 0..15 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::erdos_renyi_gnm(40, 90, &mut rng).unwrap();
            assert_eq!(core_numbers(&g), naive_core_numbers(&g), "seed {seed}");
        }
    }

    #[test]
    fn ba_graph_core_equals_attachment_count() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::barabasi_albert(300, 3, &mut rng).unwrap();
        // Every BA vertex joins with m edges, so the graph is m-degenerate.
        assert_eq!(degeneracy(&g), 3);
    }

    #[test]
    fn bridge_removal_disconnects() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::erdos_renyi_gnm(25, 28, &mut rng).unwrap();
        let base = component_count(&g);
        for (a, b) in bridges(&g) {
            let mut cut = g.clone();
            cut.remove_edge(a, b).unwrap();
            assert_eq!(component_count(&cut), base + 1, "bridge ({a},{b})");
        }
    }
}
