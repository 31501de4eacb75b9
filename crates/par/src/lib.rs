//! Deterministic fork-join helpers for the experiment engine.
//!
//! The workspace parallelizes *independent* units of work (sweep points,
//! BFS sources) whose randomness is derived per-unit from the master seed,
//! so execution order cannot influence any unit's result. These helpers
//! hand out unit indices to a pool of scoped threads and collect results
//! **in index order**, which makes a parallel run's output byte-identical
//! to a serial one: the reduction order downstream is always `0, 1, 2, …`
//! regardless of which thread computed which unit, or how many threads ran.
//!
//! `parallelism = None` means "use all available cores"; `Some(1)` forces
//! the serial path; `Some(k)` caps the pool at `k` threads.
//!
//! The helpers record nothing. A unit that is traced records into the
//! recorder of the simulation it runs.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a requested thread count to an actual one.
///
/// `None` → all available cores; `Some(k)` → `max(k, 1)`.
#[must_use]
pub fn effective_parallelism(requested: Option<usize>) -> usize {
    match requested {
        Some(k) => k.max(1),
        None => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Reads the `VEIL_PARALLELISM` environment knob.
///
/// `0` or unset → `None` (all cores); `k > 0` → `Some(k)`.
#[must_use]
pub fn env_parallelism() -> Option<usize> {
    match std::env::var("VEIL_PARALLELISM") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) | Err(_) => None,
            Ok(k) => Some(k),
        },
        Err(_) => None,
    }
}

/// Reads the `VEIL_SHARDS` environment knob: how many shards the windowed
/// simulation executor partitions the nodes into.
///
/// `0` or unset → `None` (one shard); `s > 0` → `Some(s)`. Like
/// `VEIL_PARALLELISM` this is a layout knob that never changes results:
/// the link regime alone decides which executor runs, and the windowed
/// one is identical for every `s`.
#[must_use]
pub fn env_shards() -> Option<usize> {
    match std::env::var("VEIL_SHARDS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) | Err(_) => None,
            Ok(s) => Some(s),
        },
        Err(_) => None,
    }
}

/// Computes `f(0), f(1), …, f(n - 1)` and returns the results in index
/// order, distributing the calls over up to `effective_parallelism`
/// scoped threads.
///
/// `f` must be pure up to its index argument (each unit derives its own
/// RNG stream); under that contract the output is identical for every
/// `parallelism` value, including `Some(1)`.
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn run<U, F>(n: usize, parallelism: Option<usize>, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = effective_parallelism(parallelism).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (next, slots, f) = (&next, &slots, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Runs `f(index, &mut item)` over every item, mutating in place, with
/// items distributed over up to `effective_parallelism` scoped threads in
/// contiguous chunks. This is the window/barrier primitive of the sharded
/// simulation executor: each shard is one item, the executor calls
/// `fork_join_indexed` once per time window, and the implicit join at the
/// end of the scope *is* the window barrier.
///
/// Items are partitioned contiguously (`ceil(n / threads)` per chunk), so
/// with `threads >= n` every item gets its own thread. As with [`run`],
/// `f` must be pure up to `(index, item)` — under that contract the item
/// states after the call are identical for every `parallelism` value,
/// including the serial path.
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn fork_join_indexed<T, F>(items: &mut [T], parallelism: Option<usize>, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let threads = effective_parallelism(parallelism).min(n.max(1));
    if threads <= 1 || n <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }

    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = items;
        let mut base = 0usize;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let f = &f;
            scope.spawn(move || {
                for (j, item) in head.iter_mut().enumerate() {
                    f(base + j, item);
                }
            });
            base += take;
        }
    });
}

/// Maps `f` over `items`, preserving order; parallel analogue of
/// `items.iter().map(f).collect()`.
pub fn map<T, U, F>(items: &[T], parallelism: Option<usize>, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    run(items.len(), parallelism, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_parallelism_resolves() {
        assert!(effective_parallelism(None) >= 1);
        assert_eq!(effective_parallelism(Some(0)), 1);
        assert_eq!(effective_parallelism(Some(1)), 1);
        assert_eq!(effective_parallelism(Some(7)), 7);
    }

    #[test]
    fn run_preserves_index_order() {
        for parallelism in [Some(1), Some(2), Some(4), None] {
            let out = run(37, parallelism, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_handles_empty_and_single() {
        assert_eq!(run(0, Some(4), |i| i), Vec::<usize>::new());
        assert_eq!(run(1, Some(4), |i| i + 10), vec![10]);
    }

    #[test]
    fn map_matches_serial_map() {
        let items: Vec<u64> = (0..25).map(|i| i * 3).collect();
        let serial: Vec<u64> = items.iter().map(|x| x + 1).collect();
        for parallelism in [Some(1), Some(3), None] {
            assert_eq!(map(&items, parallelism, |x| x + 1), serial);
        }
    }

    #[test]
    fn fork_join_indexed_mutates_every_item_once() {
        for parallelism in [Some(1), Some(2), Some(4), Some(16), None] {
            let mut items: Vec<(usize, u32)> = (0..23).map(|i| (i, 0)).collect();
            fork_join_indexed(&mut items, parallelism, |i, item| {
                assert_eq!(item.0, i, "index must match the item's position");
                item.1 += 1;
            });
            assert!(items.iter().all(|&(_, touched)| touched == 1));
        }
        // Degenerate sizes.
        let mut empty: Vec<u8> = vec![];
        fork_join_indexed(&mut empty, Some(4), |_, _| unreachable!());
        let mut one = vec![0u8];
        fork_join_indexed(&mut one, Some(4), |_, x| *x = 7);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn fork_join_indexed_is_parallelism_invariant() {
        let work = |i: usize, slot: &mut u64| {
            let mut h = i as u64 ^ 0x9E37_79B9_7F4A_7C15;
            for _ in 0..500 {
                h = h.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            *slot = h;
        };
        let mut serial = vec![0u64; 64];
        fork_join_indexed(&mut serial, Some(1), work);
        let mut parallel = vec![0u64; 64];
        fork_join_indexed(&mut parallel, Some(8), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn heavy_closure_results_are_deterministic() {
        let work = |i: usize| -> u64 {
            let mut h = i as u64 ^ 0x9E37_79B9_7F4A_7C15;
            for _ in 0..500 {
                h = h.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            h
        };
        let serial = run(64, Some(1), work);
        let parallel = run(64, Some(8), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic] // scope re-panics with its own payload, not "boom"
    fn worker_panics_propagate() {
        let _ = run(8, Some(2), |i| {
            assert!(i != 5, "boom");
            i
        });
    }
}
