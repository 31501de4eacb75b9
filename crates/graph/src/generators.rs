//! Random and deterministic graph generators.
//!
//! The paper's evaluation needs three kinds of topology:
//!
//! 1. A *social* trust graph with power-law degrees and non-trivial
//!    clustering, standing in for the proprietary Facebook crawl —
//!    [`barabasi_albert`] and [`holme_kim`] (BA with triad closure).
//! 2. An Erdős–Rényi *reference random graph* of the same size and average
//!    degree — [`erdos_renyi_gnm`] / [`erdos_renyi_like`].
//! 3. Small deterministic topologies for unit tests — [`complete`],
//!    [`star`], [`path`], [`cycle`], [`two_cliques_bridge`].

use crate::error::GraphError;
use crate::graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Erdős–Rényi `G(n, m)`: `m` distinct edges chosen uniformly at random.
///
/// This is the "random graph of the same size and average fan-out" the paper
/// compares against.
///
/// # Errors
///
/// Returns an error if `m` exceeds `n(n-1)/2`.
pub fn erdos_renyi_gnm<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    if m > max_edges {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "{m} edges requested but a simple graph on {n} nodes holds at most {max_edges}"
            ),
        });
    }
    let mut g = Graph::new(n);
    let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(m * 2);
    while g.edge_count() < m {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            g.add_edge(key.0, key.1).expect("in-range distinct edge");
        }
    }
    Ok(g)
}

/// Erdős–Rényi graph with the same node and edge count as `reference`.
///
/// # Errors
///
/// Propagates [`erdos_renyi_gnm`] errors (cannot occur for a valid
/// `reference`).
pub fn erdos_renyi_like<R: Rng + ?Sized>(
    reference: &Graph,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    erdos_renyi_gnm(reference.node_count(), reference.edge_count(), rng)
}

/// Barabási–Albert preferential attachment: each new node attaches to `m`
/// existing nodes with probability proportional to their degree.
///
/// Produces the power-law degree distribution the Facebook crawl exhibits.
///
/// # Errors
///
/// Returns an error if `m == 0` or `n <= m`.
pub fn barabasi_albert<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    holme_kim(n, m, 0.0, rng)
}

/// Holme–Kim model: Barabási–Albert growth with probability `p_triad` of
/// closing a triangle after each preferential attachment step.
///
/// `p_triad = 0` degenerates to plain BA; larger values raise the clustering
/// coefficient toward the levels measured on real social graphs, which is
/// the property (besides power-law degrees) that makes trust graphs poor
/// dissemination overlays.
///
/// # Errors
///
/// Returns an error if `m == 0`, `n <= m`, or `p_triad` is outside `[0, 1]`.
pub fn holme_kim<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    p_triad: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if m == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "attachment count m must be positive".into(),
        });
    }
    if n <= m {
        return Err(GraphError::InvalidParameter {
            reason: format!("need more than m={m} nodes, got n={n}"),
        });
    }
    if !(0.0..=1.0).contains(&p_triad) {
        return Err(GraphError::InvalidParameter {
            reason: format!("triad probability {p_triad} not in [0, 1]"),
        });
    }
    let mut g = Graph::new(n);
    // `targets` holds one entry per edge endpoint, so uniform sampling from
    // it is degree-proportional sampling.
    let mut targets: Vec<usize> = Vec::with_capacity(2 * m * n);
    // Seed: a clique on the first m+1 nodes, so every early node has degree
    // at least m and preferential attachment is well defined.
    for a in 0..=m {
        for b in (a + 1)..=m {
            g.add_edge(a, b).expect("seed clique edge");
            targets.push(a);
            targets.push(b);
        }
    }
    for v in (m + 1)..n {
        let mut last_attached: Option<usize> = None;
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < m {
            guard += 1;
            if guard > 50 * m + 100 {
                // Degenerate corner (tiny graphs): fall back to any
                // not-yet-neighbour to guarantee termination.
                if let Some(u) = (0..v).find(|&u| !g.has_edge(v, u)) {
                    g.add_edge(v, u).expect("fallback edge");
                    targets.push(v);
                    targets.push(u);
                    last_attached = Some(u);
                    added += 1;
                    continue;
                }
                break;
            }
            // Triad-closure step: with probability p_triad connect to a
            // random neighbour of the previously attached node.
            if let Some(prev) = last_attached {
                if p_triad > 0.0 && rng.gen_bool(p_triad) {
                    let nbrs = g.neighbors(prev);
                    if let Some(&w) = nbrs.choose(rng) {
                        let w = w as usize;
                        if w != v && !g.has_edge(v, w) {
                            g.add_edge(v, w).expect("triad edge");
                            targets.push(v);
                            targets.push(w);
                            last_attached = Some(w);
                            added += 1;
                            continue;
                        }
                    }
                }
            }
            // Preferential-attachment step.
            let &u = targets.choose(rng).expect("non-empty target list");
            if u != v && !g.has_edge(v, u) {
                g.add_edge(v, u).expect("pa edge");
                targets.push(v);
                targets.push(u);
                last_attached = Some(u);
                added += 1;
            }
        }
    }
    Ok(g)
}

/// Holme–Kim-style preferential attachment tuned to hit a *fractional*
/// average degree.
///
/// `holme_kim` can only produce average degrees near `2m` for integer `m`;
/// the paper's trust samples have fractional averages (11.3 for `f = 1.0`,
/// 6.55 for `f = 0.5`, Section IV-A). Here each arriving node attaches
/// `m_lo` or `m_lo + 1` edges, where `target_avg_degree / 2 = m_lo + frac`
/// and the larger count is chosen with probability `frac` — so the expected
/// attachment count (and therefore the asymptotic average degree) matches
/// the target while keeping the power-law tail and triad-closure clustering
/// of the Holme–Kim construction.
///
/// # Errors
///
/// Returns an error if `target_avg_degree < 2`, if it is not finite, if
/// `p_triad` is outside `[0, 1]`, or if `n` is too small for the implied
/// seed clique.
pub fn degree_matched<R: Rng + ?Sized>(
    n: usize,
    target_avg_degree: f64,
    p_triad: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if !target_avg_degree.is_finite() || target_avg_degree < 2.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "target average degree must be finite and >= 2, got {target_avg_degree}"
            ),
        });
    }
    if !(0.0..=1.0).contains(&p_triad) {
        return Err(GraphError::InvalidParameter {
            reason: format!("triad probability {p_triad} not in [0, 1]"),
        });
    }
    let half = target_avg_degree / 2.0;
    let m_lo = half.floor() as usize;
    let frac = half - m_lo as f64;
    let m_hi = if frac > 0.0 { m_lo + 1 } else { m_lo };
    if n <= m_hi + 1 {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "need more than {} nodes for avg degree {target_avg_degree}, got n={n}",
                m_hi + 1
            ),
        });
    }
    let mut g = Graph::new(n);
    let mut targets: Vec<usize> = Vec::with_capacity((target_avg_degree * n as f64) as usize);
    // Seed clique on m_hi + 1 nodes so even a node attaching m_hi edges
    // finds enough distinct neighbours.
    for a in 0..=m_hi {
        for b in (a + 1)..=m_hi {
            g.add_edge(a, b).expect("seed clique edge");
            targets.push(a);
            targets.push(b);
        }
    }
    for v in (m_hi + 1)..n {
        // Bernoulli mixture: E[m] = m_lo + frac = target_avg_degree / 2.
        let m = if frac > 0.0 && rng.gen_bool(frac) {
            m_lo + 1
        } else {
            m_lo
        };
        let mut last_attached: Option<usize> = None;
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < m {
            guard += 1;
            if guard > 50 * m + 100 {
                if let Some(u) = (0..v).find(|&u| !g.has_edge(v, u)) {
                    g.add_edge(v, u).expect("fallback edge");
                    targets.push(v);
                    targets.push(u);
                    last_attached = Some(u);
                    added += 1;
                    continue;
                }
                break;
            }
            if let Some(prev) = last_attached {
                if p_triad > 0.0 && rng.gen_bool(p_triad) {
                    let nbrs = g.neighbors(prev);
                    if let Some(&w) = nbrs.choose(rng) {
                        let w = w as usize;
                        if w != v && !g.has_edge(v, w) {
                            g.add_edge(v, w).expect("triad edge");
                            targets.push(v);
                            targets.push(w);
                            last_attached = Some(w);
                            added += 1;
                            continue;
                        }
                    }
                }
            }
            let &u = targets.choose(rng).expect("non-empty target list");
            if u != v && !g.has_edge(v, u) {
                g.add_edge(v, u).expect("pa edge");
                targets.push(v);
                targets.push(u);
                last_attached = Some(u);
                added += 1;
            }
        }
    }
    Ok(g)
}

/// Watts–Strogatz small-world graph: a ring lattice where each node connects
/// to its `k` nearest neighbours (`k` even), each edge rewired with
/// probability `beta`.
///
/// # Errors
///
/// Returns an error if `k` is odd, `k >= n`, or `beta` is outside `[0, 1]`.
pub fn watts_strogatz<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    beta: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if !k.is_multiple_of(2) {
        return Err(GraphError::InvalidParameter {
            reason: format!("lattice degree k={k} must be even"),
        });
    }
    if k >= n {
        return Err(GraphError::InvalidParameter {
            reason: format!("lattice degree k={k} must be below n={n}"),
        });
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(GraphError::InvalidParameter {
            reason: format!("rewiring probability {beta} not in [0, 1]"),
        });
    }
    let mut g = Graph::new(n);
    for v in 0..n {
        for j in 1..=(k / 2) {
            let w = (v + j) % n;
            if rng.gen_bool(beta) {
                // Rewire: keep v, pick a random non-neighbour endpoint.
                let mut guard = 0;
                loop {
                    guard += 1;
                    let t = rng.gen_range(0..n);
                    if t != v && !g.has_edge(v, t) {
                        g.add_edge(v, t).expect("rewired edge");
                        break;
                    }
                    if guard > 100 * n {
                        // Saturated neighbourhood; keep the lattice edge if
                        // possible, else drop it.
                        let _ = g.add_edge(v, w);
                        break;
                    }
                }
            } else if !g.has_edge(v, w) {
                g.add_edge(v, w).expect("lattice edge");
            }
        }
    }
    Ok(g)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            g.add_edge(a, b).expect("complete edge");
        }
    }
    g
}

/// Star graph: vertex `0` connected to all others.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(0, v).expect("star edge");
    }
    g
}

/// Path graph `0 - 1 - ... - (n-1)`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(v - 1, v).expect("path edge");
    }
    g
}

/// Cycle graph on `n >= 3` vertices.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut g = path(n);
    g.add_edge(n - 1, 0).expect("closing edge");
    g
}

/// Two cliques of sizes `a` and `b` joined by a single bridge edge.
///
/// The classic worst case for churn robustness: removing either bridge
/// endpoint partitions the graph. Useful in tests and attack scenarios.
///
/// # Panics
///
/// Panics if `a == 0` or `b == 0`.
pub fn two_cliques_bridge(a: usize, b: usize) -> Graph {
    assert!(a > 0 && b > 0, "cliques must be non-empty");
    let mut g = Graph::new(a + b);
    for x in 0..a {
        for y in (x + 1)..a {
            g.add_edge(x, y).expect("left clique edge");
        }
    }
    for x in a..(a + b) {
        for y in (x + 1)..(a + b) {
            g.add_edge(x, y).expect("right clique edge");
        }
    }
    g.add_edge(a - 1, a).expect("bridge edge");
    g
}

/// Convenience constructor for a Facebook-like synthetic social graph:
/// Holme–Kim with triad probability 0.6, giving power-law degrees plus
/// social-level clustering.
///
/// # Errors
///
/// Propagates [`holme_kim`] parameter errors.
pub fn social_graph<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Result<Graph, GraphError> {
    holme_kim(n, m, 0.6, rng)
}

/// Parameters of the community-structured social-graph model
/// ([`community_social`]).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CommunityParams {
    /// Smallest community size (inclusive).
    pub min_community: usize,
    /// Largest community size (inclusive).
    pub max_community: usize,
    /// Intra-community edge probability (Erdős–Rényi within communities).
    pub p_intra: f64,
    /// Inter-community links per *ambassador* node, attached preferentially
    /// by degree (produces power-law global hubs).
    pub inter_links: usize,
    /// Fraction of nodes that get inter-community links at all. Real social
    /// graphs have most ties inside communities; a low fraction makes
    /// breadth-first samples sweep communities before escaping.
    pub ambassador_fraction: f64,
}

impl Default for CommunityParams {
    fn default() -> Self {
        Self {
            min_community: 20,
            max_community: 80,
            p_intra: 0.2,
            inter_links: 2,
            ambassador_fraction: 1.0,
        }
    }
}

/// Community-structured social graph: dense Erdős–Rényi communities glued
/// together by preferentially attached inter-community links.
///
/// This model reproduces the two properties of crawled social graphs that
/// the paper's trust-graph sampling depends on and that pure
/// preferential-attachment models miss:
///
/// * **high local density** — a full-BFS (`f = 1`) sample hoovers up whole
///   communities, giving dense induced subgraphs, while a partial-BFS
///   (`f = 0.5`) sample skips across communities and stays sparse
///   (the paper's 5649- vs 3277-edge contrast at 1000 nodes);
/// * **power-law global degrees** — the preferential inter-community links
///   make a minority of nodes global hubs.
///
/// # Errors
///
/// Returns an error if the community size bounds are inverted or zero, if
/// `p_intra` is outside `[0, 1]`, or if `n` is smaller than one community.
pub fn community_social<R: Rng + ?Sized>(
    n: usize,
    params: CommunityParams,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if params.min_community == 0 || params.min_community > params.max_community {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "invalid community size range [{}, {}]",
                params.min_community, params.max_community
            ),
        });
    }
    if !(0.0..=1.0).contains(&params.p_intra) {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "intra-community probability {} not in [0, 1]",
                params.p_intra
            ),
        });
    }
    if n < params.min_community {
        return Err(GraphError::InvalidParameter {
            reason: format!("n={n} smaller than the minimum community size"),
        });
    }
    if !(0.0..=1.0).contains(&params.ambassador_fraction) {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "ambassador fraction {} not in [0, 1]",
                params.ambassador_fraction
            ),
        });
    }
    let mut g = Graph::new(n);
    // Partition 0..n into consecutive communities of random sizes.
    let mut community = vec![0u32; n];
    let mut start = 0usize;
    let mut community_id = 0u32;
    while start < n {
        let mut size = rng.gen_range(params.min_community..=params.max_community);
        if start + size > n || n - (start + size) < params.min_community {
            size = n - start; // absorb the remainder into the last community
        }
        for label in &mut community[start..start + size] {
            *label = community_id;
        }
        // Intra-community Erdős–Rényi edges.
        for a in start..start + size {
            for b in (a + 1)..start + size {
                if rng.gen_bool(params.p_intra) {
                    g.add_edge(a, b).expect("intra edge in range");
                }
            }
        }
        start += size;
        community_id += 1;
    }
    // Inter-community links by preferential attachment over earlier nodes.
    // Only ambassadors get them — except the first node of each community,
    // which always does so the graph stays connected.
    let mut targets: Vec<usize> = Vec::new();
    for v in 0..n {
        let community_head = v == 0 || community[v] != community[v - 1];
        if !community_head && !rng.gen_bool(params.ambassador_fraction) {
            continue;
        }
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < params.inter_links && guard < 100 * (params.inter_links + 1) {
            guard += 1;
            let candidate = if targets.is_empty() {
                if v == 0 {
                    break;
                }
                rng.gen_range(0..v)
            } else {
                targets[rng.gen_range(0..targets.len())]
            };
            if candidate < v && community[candidate] != community[v] && !g.has_edge(v, candidate) {
                g.add_edge(v, candidate).expect("inter edge in range");
                targets.push(v);
                targets.push(candidate);
                added += 1;
            }
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn gnm_has_exact_edge_count() {
        let g = erdos_renyi_gnm(50, 100, &mut rng(1)).unwrap();
        assert_eq!(g.node_count(), 50);
        assert_eq!(g.edge_count(), 100);
    }

    #[test]
    fn gnm_rejects_too_many_edges() {
        assert!(erdos_renyi_gnm(4, 7, &mut rng(1)).is_err());
        assert!(erdos_renyi_gnm(4, 6, &mut rng(1)).is_ok());
    }

    #[test]
    fn ba_structure() {
        let g = barabasi_albert(300, 3, &mut rng(4)).unwrap();
        assert_eq!(g.node_count(), 300);
        // Clique seed contributes m(m+1)/2, each later node m edges.
        assert_eq!(g.edge_count(), 3 * 4 / 2 + (300 - 4) * 3);
        assert_eq!(metrics::component_count(&g), 1);
        // Every vertex has degree >= m.
        assert!(g.degrees().iter().all(|&d| d >= 3));
    }

    #[test]
    fn ba_degrees_are_heavy_tailed() {
        let g = barabasi_albert(2000, 3, &mut rng(5)).unwrap();
        let max_deg = *g.degrees().iter().max().unwrap();
        // In a BA graph the hub degree grows like sqrt(n); an ER graph with
        // the same mean degree (6) would have max degree around 20.
        assert!(max_deg > 40, "max degree {max_deg} not heavy-tailed");
    }

    #[test]
    fn holme_kim_raises_clustering() {
        let ba = barabasi_albert(800, 3, &mut rng(6)).unwrap();
        let hk = holme_kim(800, 3, 0.8, &mut rng(6)).unwrap();
        let c_ba = metrics::average_clustering(&ba);
        let c_hk = metrics::average_clustering(&hk);
        assert!(
            c_hk > 2.0 * c_ba,
            "triad closure should raise clustering: ba={c_ba} hk={c_hk}"
        );
    }

    #[test]
    fn holme_kim_rejects_bad_parameters() {
        assert!(holme_kim(10, 0, 0.5, &mut rng(7)).is_err());
        assert!(holme_kim(3, 3, 0.5, &mut rng(7)).is_err());
        assert!(holme_kim(10, 2, 1.5, &mut rng(7)).is_err());
    }

    #[test]
    fn degree_matched_hits_fractional_targets() {
        // The paper's trust-sample averages (Section IV-A).
        for target in [11.3, 6.55] {
            let g = degree_matched(4000, target, 0.6, &mut rng(21)).unwrap();
            let got = g.average_degree();
            assert!((got - target).abs() < 0.4, "target {target}, got {got:.2}");
        }
    }

    #[test]
    fn degree_matched_is_deterministic_and_heavy_tailed() {
        let a = degree_matched(1500, 11.3, 0.6, &mut rng(22)).unwrap();
        let b = degree_matched(1500, 11.3, 0.6, &mut rng(22)).unwrap();
        assert_eq!(a, b);
        let max_deg = *a.degrees().iter().max().unwrap();
        assert!(max_deg > 40, "max degree {max_deg} not heavy-tailed");
    }

    #[test]
    fn degree_matched_rejects_bad_parameters() {
        assert!(degree_matched(100, 1.5, 0.5, &mut rng(23)).is_err());
        assert!(degree_matched(100, f64::NAN, 0.5, &mut rng(23)).is_err());
        assert!(degree_matched(100, 8.0, 1.5, &mut rng(23)).is_err());
        assert!(degree_matched(5, 11.3, 0.5, &mut rng(23)).is_err());
    }

    #[test]
    fn watts_strogatz_zero_beta_is_lattice() {
        let g = watts_strogatz(20, 4, 0.0, &mut rng(8)).unwrap();
        assert_eq!(g.edge_count(), 20 * 2);
        for v in 0..20 {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn watts_strogatz_rejects_odd_k() {
        assert!(watts_strogatz(20, 3, 0.1, &mut rng(9)).is_err());
        assert!(watts_strogatz(4, 4, 0.1, &mut rng(9)).is_err());
    }

    #[test]
    fn deterministic_topologies() {
        assert_eq!(complete(5).edge_count(), 10);
        assert_eq!(star(5).edge_count(), 4);
        assert_eq!(star(5).degree(0), 4);
        assert_eq!(path(5).edge_count(), 4);
        assert_eq!(cycle(5).edge_count(), 5);
        let g = two_cliques_bridge(4, 3);
        assert_eq!(g.edge_count(), 6 + 3 + 1);
        assert!(g.has_edge(3, 4));
        assert_eq!(metrics::component_count(&g), 1);
    }

    #[test]
    fn same_seed_same_graph() {
        let a = social_graph(200, 3, &mut rng(42)).unwrap();
        let b = social_graph(200, 3, &mut rng(42)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn community_social_is_connected_and_clustered() {
        let params = CommunityParams::default();
        let g = community_social(2000, params, &mut rng(20)).unwrap();
        assert_eq!(g.node_count(), 2000);
        assert_eq!(metrics::component_count(&g), 1);
        let clustering = metrics::average_clustering(&g);
        assert!(
            clustering > 0.1,
            "clustering {clustering} too low for a social graph"
        );
    }

    #[test]
    fn community_social_average_degree_tracks_p_intra() {
        let sparse = community_social(
            1500,
            CommunityParams {
                p_intra: 0.05,
                ..CommunityParams::default()
            },
            &mut rng(21),
        )
        .unwrap();
        let dense = community_social(
            1500,
            CommunityParams {
                p_intra: 0.3,
                ..CommunityParams::default()
            },
            &mut rng(21),
        )
        .unwrap();
        assert!(dense.average_degree() > 2.0 * sparse.average_degree());
    }

    #[test]
    fn community_social_rejects_bad_parameters() {
        let bad_range = CommunityParams {
            min_community: 50,
            max_community: 20,
            ..CommunityParams::default()
        };
        assert!(community_social(1000, bad_range, &mut rng(22)).is_err());
        let bad_p = CommunityParams {
            p_intra: 1.5,
            ..CommunityParams::default()
        };
        assert!(community_social(1000, bad_p, &mut rng(22)).is_err());
        let too_small = CommunityParams::default();
        assert!(community_social(5, too_small, &mut rng(22)).is_err());
    }

    #[test]
    fn community_social_has_global_hubs() {
        // Preferential inter-community attachment should create nodes whose
        // degree well exceeds the intra-community expectation.
        let params = CommunityParams {
            min_community: 20,
            max_community: 40,
            p_intra: 0.1,
            inter_links: 2,
            ambassador_fraction: 1.0,
        };
        let g = community_social(5000, params, &mut rng(23)).unwrap();
        let expected_intra = 0.1 * 40.0;
        let max_deg = *g.degrees().iter().max().unwrap() as f64;
        assert!(
            max_deg > 3.0 * expected_intra,
            "max degree {max_deg} shows no hub structure"
        );
    }

    #[test]
    fn community_social_deterministic() {
        let p = CommunityParams::default();
        let a = community_social(1000, p, &mut rng(24)).unwrap();
        let b = community_social(1000, p, &mut rng(24)).unwrap();
        assert_eq!(a, b);
    }
}
