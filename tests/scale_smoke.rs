//! `bench_scale`-shaped smoke test: the flat data layout's bytes/node
//! ceiling, checked at 10k nodes so a pointer-heavy regression in the
//! cache/sampler/arena layout fails fast in `cargo test` instead of only
//! in the CI `scale-smoke` job.

use veil_bench::scale::measure_scale_point;
use veil_core::{LinkLayerConfig, OverlayConfig, Simulation};
use veil_graph::generators::degree_matched;
use veil_sim::churn::ChurnConfig;
use veil_sim::fault::{FaultConfig, LatencyDist};
use veil_sim::rng::{derive_rng, Stream};

/// Ceiling on the simulation's approximate heap per node. The figure is
/// deterministic for a seed (heap accounting reads capacities, not the
/// allocator): 5,069 bytes/node at 10k nodes and this test's 10-period
/// horizon (paper-default parameters: a 400-entry cache is two columns,
/// handle and expiry, 12 B per entry, grown by doubling up to 4,800 B;
/// then the 50-slot sampler, whose slot columns a node that was never
/// offered anything does not allocate, the node's share of the
/// append-only arena, cell and queue amortization — see
/// BENCH_scale.json). The ceiling is ≈ 1.2× that: a third 8-byte cache
/// column adds ≈ 1,540 and fails, and so does any relapse into
/// per-pseudonym boxing or per-call map rebuilds.
const BYTES_PER_NODE_CEILING: f64 = 6.0 * 1024.0;

#[test]
fn ten_thousand_nodes_stay_under_the_bytes_per_node_ceiling() {
    let p = measure_scale_point(10_000, 10.0, 42).expect("scale point");
    assert!(p.events_processed > 0, "run processed no events");
    assert!(
        p.events_per_sec > 0.0,
        "events/sec must be positive, got {}",
        p.events_per_sec
    );
    assert!(
        p.heap_bytes > 0,
        "heap accounting returned zero — approx_heap_bytes is broken"
    );
    assert!(
        p.bytes_per_node < BYTES_PER_NODE_CEILING,
        "{:.0} bytes/node exceeds the {BYTES_PER_NODE_CEILING} ceiling \
         (heap {} bytes over {} nodes)",
        p.bytes_per_node,
        p.heap_bytes,
        p.nodes
    );
}

/// Ceiling on the faulty link's approximate heap per node, checked at 2k
/// nodes and t = 22 on `faulty_s1`'s configuration (loss 0.05,
/// Exponential(0.3) latency, one shard, α = 0.7, seed 42). The figure is
/// deterministic for a seed: 10,101 bytes/node, of which 2,135 are the
/// deliveries queued in the engine (each a boxed message and its offer).
/// The rest is the ideal link's state plus the pending exchanges, ≈ 3
/// per node and most waiting out a timeout, each holding its offer as
/// 4-byte arena handles. The ceiling is ≈ 1.2× that: a pending exchange
/// that keeps a copy of its offer (up to 40 × 48 B) reads 14,477 and
/// fails.
const FAULTY_BYTES_PER_NODE_CEILING: f64 = 12_000.0;

#[test]
fn the_faulty_link_stays_under_its_bytes_per_node_ceiling() {
    let nodes = 2_000;
    let mut rng = derive_rng(42, Stream::Topology);
    let trust = degree_matched(nodes, 11.3, 0.6, &mut rng).expect("trust graph");
    let fault = FaultConfig {
        drop_probability: 0.05,
        latency: LatencyDist::Exponential { mean: 0.3 },
        episodes: Vec::new(),
    };
    let cfg = OverlayConfig {
        shards: Some(1),
        parallelism: Some(1),
        link: LinkLayerConfig::Faulty(fault),
        ..OverlayConfig::default()
    };
    let churn = ChurnConfig::from_availability(0.7, 30.0);
    let mut sim = Simulation::new(trust, cfg, churn, 42).expect("simulation");
    sim.run_until(22.0);
    let bytes_per_node = sim.approx_heap_bytes() as f64 / nodes as f64;
    assert!(
        bytes_per_node < FAULTY_BYTES_PER_NODE_CEILING,
        "{bytes_per_node:.0} bytes/node exceeds the \
         {FAULTY_BYTES_PER_NODE_CEILING} ceiling"
    );
}
