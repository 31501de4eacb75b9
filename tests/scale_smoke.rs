//! `bench_scale`-shaped smoke test: the flat data layout's bytes/node
//! ceiling, checked at 10k nodes so a pointer-heavy regression in the
//! cache/sampler/arena layout fails fast in `cargo test` instead of only
//! in the CI `scale-smoke` job.

use veil_bench::scale::measure_scale_point;

/// Ceiling on the simulation's approximate heap per node. The figure is
/// deterministic for a seed (heap accounting reads capacities, not the
/// allocator): 5,539 bytes/node at 10k nodes and this test's 10-period
/// horizon (paper-default parameters: a 400-entry cache is two columns,
/// handle and expiry, 12 B per entry, grown by doubling up to 4,800 B;
/// then the 50-slot sampler, the node's share of the append-only arena,
/// cell and queue amortization — see BENCH_scale.json). The ceiling is
/// 1.2× that: a third 8-byte cache column reads 7,078 and fails, and so
/// does any relapse into per-pseudonym boxing or per-call map rebuilds.
const BYTES_PER_NODE_CEILING: f64 = 6.5 * 1024.0;

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
