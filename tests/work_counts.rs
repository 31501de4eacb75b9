//! Exact work counts: heap allocations and bytes allocated per simulator
//! event, read by a counting global allocator. Unlike a timing, a count is
//! a pure function of the code and the seed, so host noise cannot blur it.
//!
//! The counter is process-wide, so this binary holds one `#[test]` and
//! measures only single-threaded configurations (the ideal link runs on one
//! shard, `faulty_s1`'s link on one shard and one thread). It first checks
//! that two runs of the whole measurement agree exactly, then gates each
//! reading. The windows are the benchmark's:
//!
//! - the ideal link at t 8 → 32 (`ideal_10k`);
//! - the same run past the first pseudonym expiry, t 92 → 104 (lifetime
//!   90 periods);
//! - `faulty_s1`'s link at t 10 → 22;
//! - one `Simulation::new`, in allocations per set-up.
//!
//! `NODES` keeps the test inside the tier-1 budget. Per-event counts barely
//! depend on the node count; `benchmarks/baseline/BENCH_work.json` holds
//! the 10k readings, taken by this test with `NODES = 10_000` in release
//! (`cargo test --release -p veil-bench --test work_counts -- --nocapture`
//! prints the readings).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use veil_core::{LinkLayerConfig, OverlayConfig, Simulation};
use veil_graph::generators::degree_matched;
use veil_sim::churn::ChurnConfig;
use veil_sim::fault::{FaultConfig, LatencyDist};
use veil_sim::rng::{derive_rng, Stream};

/// Counts every allocation and reallocation, and the bytes each asks for.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Nodes of every measured simulation.
const NODES: usize = 1_000;
/// The benchmark's seed, for the trust graph and the simulation.
const SEED: u64 = 42;

/// Allocations and bytes allocated over some stretch of work.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Work {
    allocs: u64,
    bytes: u64,
}

/// The work `f` does, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (Work, T) {
    let (a, b) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let out = f();
    let work = Work {
        allocs: ALLOCS.load(Relaxed) - a,
        bytes: BYTES.load(Relaxed) - b,
    };
    (work, out)
}

/// Allocations and bytes per event of one window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PerEvent {
    allocs: f64,
    bytes: f64,
    events: u64,
}

/// Runs `sim` to `to` and divides the work by the events it took.
fn window(sim: &mut Simulation, to: f64) -> PerEvent {
    let before = sim.events_processed();
    let (work, ()) = counted(|| sim.run_until(to));
    let events = sim.events_processed() - before;
    assert!(events > 0, "no events before t = {to}");
    PerEvent {
        allocs: work.allocs as f64 / events as f64,
        bytes: work.bytes as f64 / events as f64,
        events,
    }
}

#[derive(Debug, PartialEq)]
struct Readings {
    ideal: PerEvent,
    past_expiry: PerEvent,
    faulty: PerEvent,
    setup: Work,
}

fn simulation(cfg: OverlayConfig) -> (Work, Simulation) {
    let mut rng = derive_rng(SEED, Stream::Topology);
    let trust = degree_matched(NODES, 11.3, 0.6, &mut rng).expect("trust graph");
    let churn = ChurnConfig::from_availability(0.7, 30.0);
    counted(|| Simulation::new(trust, cfg, churn, SEED).expect("simulation"))
}

fn measure() -> Readings {
    let (setup, mut sim) = simulation(OverlayConfig::default());
    sim.run_until(8.0);
    let ideal = window(&mut sim, 32.0);
    sim.run_until(92.0);
    let past_expiry = window(&mut sim, 104.0);
    let (_, mut sim) = simulation(OverlayConfig {
        shards: Some(1),
        parallelism: Some(1),
        link: LinkLayerConfig::Faulty(FaultConfig {
            drop_probability: 0.05,
            latency: LatencyDist::Exponential { mean: 0.3 },
            episodes: Vec::new(),
        }),
        ..OverlayConfig::default()
    });
    sim.run_until(10.0);
    let faulty = window(&mut sim, 22.0);
    Readings {
        ideal,
        past_expiry,
        faulty,
        setup,
    }
}

/// Fails if `got` exceeds `ceiling`, naming the reading.
fn gate(name: &str, got: f64, ceiling: f64) {
    assert!(
        got <= ceiling,
        "{name}: {got:.3} exceeds its ceiling {ceiling}"
    );
}

#[test]
fn the_simulator_does_its_counted_work_and_no_more() {
    let first = measure();
    println!("{first:#?}");
    assert_eq!(first, measure(), "two runs of the same work must agree");

    // The ideal link allocates nothing per exchange: what is left is the
    // amortized growth of the event queue, the arena and the per-node
    // columns.
    gate("ideal allocations/event", first.ideal.allocs, 1.0);
    // The others at ≈ 1.1× their reading at this size: 0.227 / 135 B,
    // 0.0140 / 6.5 B, 3.86 / 2 463 B and 2 001 allocations / 1.50 MB.
    gate("ideal bytes/event", first.ideal.bytes, 150.0);
    gate(
        "past-expiry allocations/event",
        first.past_expiry.allocs,
        0.016,
    );
    gate("past-expiry bytes/event", first.past_expiry.bytes, 7.2);
    gate("faulty allocations/event", first.faulty.allocs, 4.25);
    gate("faulty bytes/event", first.faulty.bytes, 2_710.0);
    gate("set-up allocations", first.setup.allocs as f64, 2_200.0);
    gate("set-up bytes", first.setup.bytes as f64, 1_650_000.0);
}
