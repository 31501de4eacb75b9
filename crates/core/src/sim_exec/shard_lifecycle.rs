//! Lifecycle glue and fault-episode handling for [`Shard`].
//!
//! The transitions themselves are [`NodeCell`] methods (see
//! [`super::state`]); a shard only schedules what they return into its own
//! engine and emits their events. Every victim of an episode is handled by
//! the shard that owns it, and exactly one shard (the owner of the
//! episode's anchor node) emits the network-level observation.

use veil_obs::EventKind as Obs;
use veil_sim::fault::EpisodeEffect;
use veil_sim::SimTime;

use super::shard::{Shard, WindowCtx};
use super::state::{NodeCell, Transition};
use super::Event;

impl Shard {
    /// Schedules and emits what a lifecycle transition returned.
    pub(super) fn apply_transition(
        &mut self,
        ctx: &WindowCtx<'_>,
        now: SimTime,
        node: u32,
        generation: u32,
        t: Option<Transition>,
    ) {
        let Some(t) = t else {
            return; // superseded by a (newer) blackout
        };
        if let Some(delay) = t.next_churn {
            self.engine
                .schedule_at(now + delay, Event::Churn { node, generation });
        }
        for kind in t.events.into_iter().flatten() {
            self.emit(ctx, now, Some(node), || kind);
        }
    }

    pub(super) fn handle_episode_start(
        &mut self,
        now: SimTime,
        idx: usize,
        cells: &mut [NodeCell],
        ctx: &WindowCtx<'_>,
    ) {
        let Some(ep) = ctx.fault.and_then(|f| f.episodes.get(idx)).copied() else {
            return;
        };
        // The EpisodeStart event sits in every shard's engine (each shard
        // handles its own victims); exactly one shard — the owner of the
        // episode's anchor node — emits the network-level observation.
        let anchor = match ep.effect {
            EpisodeEffect::Blackout { first, .. } => (first as usize).min(ctx.node_count - 1),
            _ => 0,
        };
        let owned = self.start..self.start + cells.len();
        if owned.contains(&anchor) {
            self.emit(ctx, now, None, || Obs::EpisodeStart {
                index: idx as u64,
                kind: ep.effect.kind_str().to_string(),
            });
        }
        let EpisodeEffect::Blackout { first, count } = ep.effect else {
            return;
        };
        let duration = ep.end - ep.start;
        if !(duration > 0.0 && duration.is_finite()) {
            return;
        }
        let until = now + duration;
        let lo = (first as usize).clamp(owned.start, owned.end);
        let hi = (first as usize)
            .saturating_add(count as usize)
            .clamp(owned.start, owned.end);
        for v in lo..hi {
            let cell = &mut cells[v - self.start];
            let Some(events) = cell.begin_blackout(now, until) else {
                continue;
            };
            let wake = Event::BlackoutEnd {
                node: v as u32,
                generation: cell.churn_generation,
            };
            for kind in events.into_iter().flatten() {
                self.emit(ctx, now, Some(v as u32), || kind);
            }
            self.engine.schedule_at(until, wake);
        }
    }
}
