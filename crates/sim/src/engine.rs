//! Monotonic discrete-event queue.
//!
//! The engine is a binary min-heap keyed by `(time, seq)`, where `seq` is
//! the insertion counter: time order with FIFO ties is the whole contract
//! (see the [FIFO guarantee](Engine#fifo-guarantee)), and it is pinned
//! against an independent sorted-scan model in `tests/properties.rs`.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: ordered by time, then by insertion sequence so that
/// simultaneous events run in FIFO order (deterministic replay).
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// Reversed `(time, seq)`, so `BinaryHeap` (a max-heap) pops the
    /// earliest time first, FIFO among equal times.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Discrete-event engine: a priority queue of `(time, event)` pairs plus a
/// monotonic clock.
///
/// Events at equal times are delivered in scheduling order. Scheduling into
/// the past is rejected, so causality cannot be violated.
///
/// # FIFO guarantee
///
/// The same-timestamp tie-break is a documented, load-bearing contract, not
/// an implementation accident: events scheduled at equal [`SimTime`] keys
/// are popped in exactly the order [`Engine::schedule_at`] inserted them,
/// with no interleaving and no dependence on queue depth or on how the
/// drain is split across [`Engine::pop`] / [`Engine::pop_before`] calls.
/// The sharded simulation executor (`veil-core`'s `sim_exec`) relies on
/// this: at every window barrier it injects cross-shard messages into each
/// destination engine in a canonical `(time, src, seq)` order, and the FIFO
/// tie-break is what turns that injection order into a deterministic
/// delivery order for equal-time messages. Changing the tie-break silently
/// changes every sharded trace. It holds because the insertion sequence
/// number is part of the heap key, so no two entries ever compare equal.
/// The guarantee is pinned by the `equal_time_keys_pop_in_insertion_order`
/// and `engine_matches_sorted_model` property tests in
/// `tests/properties.rs`.
///
/// # Examples
///
/// ```
/// use veil_sim::engine::Engine;
/// use veil_sim::time::SimTime;
///
/// let mut e: Engine<u32> = Engine::new();
/// e.schedule_at(SimTime::new(1.0), 10);
/// e.schedule_in(0.25, 20);
/// assert_eq!(e.pop(), Some((SimTime::new(0.25), 20)));
/// assert_eq!(e.now(), SimTime::new(0.25));
/// ```
#[derive(Default)]
pub struct Engine<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
    high_water: usize,
}

impl<E> Engine<E> {
    /// Creates an empty engine with the clock at zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            high_water: 0,
        }
    }

    /// Current simulation time: the time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Total number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Largest queue depth ever reached (observability seam: exported as
    /// the `engine.queue_high_water` gauge).
    pub fn high_water_mark(&self) -> usize {
        self.high_water
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Approximate heap footprint of the queue structure itself in bytes
    /// (the entry slots; not the events' own heap data).
    pub fn approx_heap_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Scheduled<E>>()
    }

    /// The queued events, in no particular order (for accounting what they
    /// own; the queue is unchanged).
    pub fn events(&self) -> impl Iterator<Item = &E> {
        self.heap.iter().map(|s| &s.event)
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// Among events sharing the same `time`, delivery order is insertion
    /// order (see the [FIFO guarantee](Engine#fifo-guarantee)); each call
    /// consumes one monotonic sequence number that serves as the tie-break.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the current clock.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {now}",
            now = self.now
        );
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Schedules `event` after `delay` shuffle periods.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative, NaN or infinite.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    ///
    /// Equal-time events come out in the order they were scheduled (see the
    /// [FIFO guarantee](Engine#fifo-guarantee)).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now, "queue produced an event in the past");
        self.now = s.time;
        self.processed += 1;
        Some((s.time, s.event))
    }

    /// Removes and returns the earliest event only if it occurs strictly
    /// before `horizon`; the clock does not move past `horizon` otherwise.
    ///
    /// This is the window primitive of the sharded executor: draining with
    /// `pop_before(window_end)` yields exactly the events of the current
    /// window, in time order with FIFO ties, and leaves the rest queued.
    /// Splitting a drain across several horizons never reorders equal-time
    /// events relative to a single [`Engine::pop`] drain.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? < horizon {
            self.pop()
        } else {
            None
        }
    }
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(SimTime::new(3.0), "c");
        e.schedule_at(SimTime::new(1.0), "a");
        e.schedule_at(SimTime::new(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| e.pop().map(|(_, ev)| ev)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(e.processed(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..10 {
            e.schedule_at(SimTime::new(1.0), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, ev)| ev)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_in(2.0, ());
        assert_eq!(e.now(), SimTime::ZERO);
        e.pop();
        assert_eq!(e.now(), SimTime::new(2.0));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn rejects_scheduling_into_past() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_at(SimTime::new(5.0), ());
        e.pop();
        e.schedule_at(SimTime::new(1.0), ());
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::new(1.0), 1);
        e.schedule_at(SimTime::new(5.0), 2);
        assert_eq!(
            e.pop_before(SimTime::new(3.0)),
            Some((SimTime::new(1.0), 1))
        );
        assert_eq!(e.pop_before(SimTime::new(3.0)), None);
        assert_eq!(e.pending(), 1);
        // Clock did not jump to 5.0.
        assert_eq!(e.now(), SimTime::new(1.0));
    }

    #[test]
    fn high_water_mark_tracks_peak_depth() {
        let mut e: Engine<u32> = Engine::new();
        assert_eq!(e.high_water_mark(), 0);
        for i in 0..5 {
            e.schedule_at(SimTime::new(f64::from(i)), i);
        }
        assert_eq!(e.high_water_mark(), 5);
        while e.pop().is_some() {}
        // Draining does not lower the mark.
        assert_eq!(e.high_water_mark(), 5);
        e.schedule_in(1.0, 9);
        assert_eq!(e.high_water_mark(), 5);
    }

    #[test]
    fn empty_engine() {
        let mut e: Engine<()> = Engine::new();
        assert!(e.is_empty());
        assert_eq!(e.pop(), None);
        assert_eq!(e.peek_time(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_in(1.0, "first");
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, SimTime::new(1.0));
        e.schedule_in(1.0, "second");
        let (t2, ev) = e.pop().unwrap();
        assert_eq!(t2, SimTime::new(2.0));
        assert_eq!(ev, "second");
    }

    #[test]
    fn schedule_just_after_now_pops_before_queued_later_events() {
        // Advance the clock, then schedule events between now and the next
        // queued one: they must pop first.
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(SimTime::new(1.0), "a");
        e.schedule_at(SimTime::new(50.0), "z");
        assert_eq!(e.pop().unwrap().1, "a");
        e.schedule_at(SimTime::new(1.01), "b");
        e.schedule_at(SimTime::new(1.02), "c");
        assert_eq!(e.pop().unwrap().1, "b");
        assert_eq!(e.pop().unwrap().1, "c");
        assert_eq!(e.pop().unwrap().1, "z");
    }

    #[test]
    fn far_future_events_keep_time_then_fifo_order() {
        let span = 2048.0;
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::new(0.5), 0);
        // Thousands of periods out (exponential-backoff retries reach this).
        e.schedule_at(SimTime::new(span * 3.0), 3);
        e.schedule_at(SimTime::new(span * 3.0), 4);
        e.schedule_at(SimTime::new(span * 2.0), 2);
        e.schedule_at(SimTime::new(1.5), 1);
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, ev)| ev)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4], "time order with FIFO ties");
        assert_eq!(e.pending(), 0);
        assert_eq!(e.processed(), 5);
    }

    #[test]
    fn equal_far_times_straddling_a_pop_keep_fifo() {
        let far = 2048.0 + 1.0;
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::new(0.25), 0);
        e.schedule_at(SimTime::new(far), 1);
        // The queue drains down to the far event alone; a later insert at
        // the same time must still pop after it.
        assert_eq!(e.pop(), Some((SimTime::new(0.25), 0)));
        e.schedule_at(SimTime::new(far), 2);
        assert_eq!(e.pop(), Some((SimTime::new(far), 1)));
        assert_eq!(e.pop(), Some((SimTime::new(far), 2)));
    }
}
