//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use veil_sim::churn::{empirical_availability, simulate_timeline, ChurnConfig};
use veil_sim::dist::{DistKind, DurationDist, Exponential, Pareto};
use veil_sim::engine::Engine;
use veil_sim::time::SimTime;

proptest! {
    #[test]
    fn engine_pops_in_time_then_fifo_order(times in prop::collection::vec(0.0f64..1000.0, 1..200)) {
        let mut engine: Engine<usize> = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::new(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = engine.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt, "time order violated");
                if t == lt {
                    prop_assert!(i > li, "FIFO tiebreak violated");
                }
            }
            last = Some((t, i));
        }
        prop_assert_eq!(engine.processed(), times.len() as u64);
    }

    #[test]
    fn equal_time_keys_pop_in_insertion_order(
        slots in prop::collection::vec(0usize..4, 1..200),
        horizon_split in 0usize..4,
    ) {
        // Deliberately collide timestamps: every event lands on one of four
        // fixed SimTime keys, so almost every pop exercises the tie-break.
        // The documented FIFO guarantee ("equal keys pop in schedule order,
        // even when the drain is split across pop_before horizons") is what
        // the sharded executor's canonical barrier merge leans on.
        let grid = [0.0, 0.25, 1.0, 1.5];
        let mut engine: Engine<usize> = Engine::new();
        for (i, &s) in slots.iter().enumerate() {
            engine.schedule_at(SimTime::new(grid[s]), i);
        }
        // Expected order: a stable sort of the insertion indices by time —
        // exactly "time order with FIFO ties".
        let mut expected: Vec<usize> = (0..slots.len()).collect();
        expected.sort_by(|&a, &b| {
            grid[slots[a]].partial_cmp(&grid[slots[b]]).expect("finite")
        });
        // Drain through pop_before up to a mid-grid horizon first, then pop
        // the rest: splitting the drain must not perturb the order.
        let mut got = Vec::new();
        let h = SimTime::new(grid[horizon_split]);
        while let Some((_, i)) = engine.pop_before(h) {
            got.push(i);
        }
        while let Some((_, i)) = engine.pop() {
            got.push(i);
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn engine_matches_sorted_model(
        ops in prop::collection::vec(
            // (time slot, how many equal-time events to burst, pops to attempt,
            //  whether to drain through a pop_before horizon first)
            (0usize..6, 1usize..5, 0usize..4, any::<bool>()),
            1..120,
        ),
        far_first in any::<bool>(),
    ) {
        // Reference model, independent of the engine's heap: an unordered
        // `Vec` whose pop removes the minimum `(time, seq)` by linear scan.
        // Interleaves same-time bursts, far-future times, pops and split
        // horizons; the pop sequences must be identical.
        fn pop_min(model: &mut Vec<(SimTime, u64)>) -> Option<(SimTime, u64)> {
            let i = (0..model.len()).min_by_key(|&i| model[i])?;
            Some(model.swap_remove(i))
        }
        // Includes near neighbours (0.25/0.26), a window-boundary value
        // (1.5) and a time thousands of periods out.
        let grid = [0.0, 0.25, 0.26, 1.5, 7.75, 3000.0];
        let mut engine: Engine<u64> = Engine::new();
        let mut model: Vec<(SimTime, u64)> = Vec::new();
        let mut next = 0u64;
        // The shape that broke the calendar queue this engine replaced: the
        // very first event lies far ahead, and every later burst and pop
        // happens in the near time before it.
        let far = far_first.then_some((5, 1, 0, false));
        for (slot, burst, pops, split) in far.into_iter().chain(ops) {
            let t = SimTime::new(grid[slot]);
            if t >= engine.now() {
                for _ in 0..burst {
                    engine.schedule_at(t, next);
                    model.push((t, next));
                    next += 1;
                }
            }
            prop_assert_eq!(engine.pending(), model.len());
            for _ in 0..pops {
                let expected = pop_min(&mut model);
                let got = if split {
                    // Drain through a horizon first; fall back to pop so the
                    // attempt always consumes at most one event either way.
                    match expected {
                        Some((t, _)) => engine.pop_before(t + 0.01).or_else(|| engine.pop()),
                        None => engine.pop(),
                    }
                } else {
                    engine.pop()
                };
                prop_assert_eq!(got, expected);
            }
        }
        // Final drain: full remaining order must match.
        while let Some(expected) = pop_min(&mut model) {
            prop_assert_eq!(engine.pop(), Some(expected));
        }
        prop_assert_eq!(engine.pop(), None);
        prop_assert_eq!(engine.processed(), next);
    }

    #[test]
    fn engine_clock_is_monotone(
        schedule in prop::collection::vec((0.0f64..100.0, any::<bool>()), 1..100),
    ) {
        // Interleave scheduling (relative) and popping; clock never goes back.
        let mut engine: Engine<u8> = Engine::new();
        let mut last_now = SimTime::ZERO;
        for (delay, pop) in schedule {
            engine.schedule_in(delay, 0);
            if pop {
                engine.pop();
            }
            prop_assert!(engine.now() >= last_now);
            last_now = engine.now();
        }
    }

    #[test]
    fn pop_before_never_crosses_horizon(
        times in prop::collection::vec(0.0f64..100.0, 1..50),
        horizon in 0.0f64..100.0,
    ) {
        let mut engine: Engine<u8> = Engine::new();
        for &t in &times {
            engine.schedule_at(SimTime::new(t), 0);
        }
        let h = SimTime::new(horizon);
        while let Some((t, _)) = engine.pop_before(h) {
            prop_assert!(t < h);
        }
        prop_assert!(engine.now() <= h.max(SimTime::ZERO));
        // Everything left is at or past the horizon.
        if let Some(t) = engine.peek_time() {
            prop_assert!(t >= h);
        }
    }

    #[test]
    fn exponential_samples_are_nonnegative(mean in 0.001f64..1e4, seed in any::<u64>()) {
        let d = Exponential::new(mean);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn pareto_samples_respect_scale(shape in 1.1f64..5.0, mean in 0.1f64..1e3, seed in any::<u64>()) {
        let d = Pareto::with_mean(shape, mean);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(d.sample(&mut rng) >= d.scale() - 1e-12);
        }
        prop_assert!((d.mean() - mean).abs() < 1e-6 * mean.max(1.0));
    }

    #[test]
    fn churn_availability_formula_is_exact(alpha in 0.01f64..1.0, toff in 0.1f64..100.0) {
        let cfg = ChurnConfig::from_availability(alpha, toff);
        prop_assert!((cfg.availability() - alpha).abs() < 1e-9);
    }

    #[test]
    fn churn_timeline_alternates_and_is_sorted(
        alpha in 0.05f64..0.95,
        seed in any::<u64>(),
        kind in prop::sample::select(vec![DistKind::Exponential, DistKind::Fixed]),
    ) {
        let cfg = ChurnConfig::from_availability(alpha, 10.0).with_kind(kind);
        let mut rng = StdRng::seed_from_u64(seed);
        let tl = simulate_timeline(&cfg, 500.0, &mut rng);
        prop_assert_eq!(tl[0].0, 0.0);
        for w in tl.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert_eq!(w[0].1, w[1].1.flipped());
        }
        let a = empirical_availability(&tl, 500.0);
        prop_assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn fixed_churn_availability_is_deterministic(alpha in 0.1f64..0.9) {
        // With Fixed durations the long-run availability equals alpha up to
        // boundary effects of the final partial cycle.
        let cfg = ChurnConfig::from_availability(alpha, 10.0)
            .with_kind(DistKind::Fixed)
            .with_initial(veil_sim::churn::InitialState::AllOnline);
        let mut rng = StdRng::seed_from_u64(1);
        let horizon = 10_000.0;
        let tl = simulate_timeline(&cfg, horizon, &mut rng);
        let a = empirical_availability(&tl, horizon);
        prop_assert!((a - alpha).abs() < 0.02, "alpha {alpha} empirical {a}");
    }

    #[test]
    fn sim_time_ordering_is_total(a in 0.0f64..1e6, b in 0.0f64..1e6) {
        let (x, y) = (SimTime::new(a), SimTime::new(b));
        prop_assert_eq!(x < y, a < b);
        prop_assert_eq!(x == y, a == b);
        prop_assert_eq!(x.max(y).as_f64(), a.max(b));
    }

    #[test]
    fn sim_time_period_matches_floor(t in 0.0f64..1e6) {
        prop_assert_eq!(SimTime::new(t).period(), t.floor() as u64);
    }
}
