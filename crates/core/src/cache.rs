//! The Cyclon-style pseudonym cache (Section III-D1).
//!
//! Each node maintains a bounded cache of pseudonyms received in gossip
//! exchanges. On each shuffle a node offers a random subset of its cache
//! (plus its own pseudonym) and absorbs the peer's offer, with "a cache
//! replacement policy similar to that employed in \[CYCLON\]": when the cache
//! overflows, the entries that were just offered to the peer are evicted
//! first, then random victims.
//!
//! # Memory layout
//!
//! The cache is flat and arena-backed: `entries` holds 4-byte
//! [`PseudonymHandle`]s into the executor's shared [`PseudonymArena`]
//! instead of 48-byte [`Pseudonym`] values, with the expiry time mirrored
//! inline (`expires`, `f64::INFINITY` = never) so the per-shuffle expiry
//! sweep scans one contiguous array and never dereferences the arena. A
//! third parallel column, `ids`, answers membership by a linear scan of at
//! most `capacity` `u64`s; there is no separate index to keep in step.
//! That is 20 bytes per entry (handle 4 + expiry 8 + id 8) instead of the
//! ~65 of a `Vec<Pseudonym>` plus `HashMap`, all of it lazily grown.

use crate::pseudonym::{Pseudonym, PseudonymArena, PseudonymHandle, PseudonymId};
use rand::seq::SliceRandom;
use rand::Rng;
use veil_sim::SimTime;

/// Bounded pseudonym cache with Cyclon-like replacement.
///
/// # Examples
///
/// ```
/// use veil_core::cache::Cache;
/// use veil_core::pseudonym::{PseudonymArena, PseudonymService};
/// use veil_sim::SimTime;
///
/// let mut svc = PseudonymService::new(1);
/// let mut arena = PseudonymArena::new();
/// let mut cache = Cache::new(2);
/// let a = svc.mint(1, SimTime::ZERO, None);
/// cache.insert(&mut arena, a, SimTime::ZERO);
/// assert_eq!(cache.len(), 1);
/// assert!(cache.contains(a.id()));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    capacity: usize,
    /// Arena handles in entry order (inserts append, removals
    /// swap-remove) — the order the random-eviction RNG indexes into, and
    /// so the one piece of layout a run can observe.
    entries: Vec<PseudonymHandle>,
    /// Expiry instant per entry, parallel to `entries`; `INFINITY` = never.
    expires: Vec<f64>,
    /// Instance id per entry, parallel to `entries`.
    ids: Vec<PseudonymId>,
    /// Reusable shuffle-pick buffer for [`Cache::select_offer`].
    offer_scratch: Vec<u32>,
    /// Reusable just-sent eviction pool for [`Cache::absorb`].
    sent_scratch: Vec<PseudonymId>,
}

impl Cache {
    /// Creates an empty cache holding at most `capacity` pseudonyms.
    ///
    /// Storage grows lazily: an idle node's cache costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            capacity,
            entries: Vec::new(),
            expires: Vec::new(),
            ids: Vec::new(),
            offer_scratch: Vec::new(),
            sent_scratch: Vec::new(),
        }
    }

    /// Number of cached pseudonyms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a pseudonym with this id is cached.
    pub fn contains(&self, id: PseudonymId) -> bool {
        self.ids.contains(&id)
    }

    /// The cached entries as arena handles, in unspecified order.
    pub fn handles(&self) -> &[PseudonymHandle] {
        &self.entries
    }

    /// Iterates over the cached pseudonyms in unspecified order, resolved
    /// through the arena that interned them.
    pub fn iter<'a>(&'a self, arena: &'a PseudonymArena) -> impl Iterator<Item = Pseudonym> + 'a {
        self.entries.iter().map(|&h| arena.get(h))
    }

    /// Approximate heap footprint of this cache in bytes.
    pub fn approx_heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<PseudonymHandle>()
            + self.expires.capacity() * std::mem::size_of::<f64>()
            + self.ids.capacity() * std::mem::size_of::<PseudonymId>()
            + self.offer_scratch.capacity() * std::mem::size_of::<u32>()
            + self.sent_scratch.capacity() * std::mem::size_of::<PseudonymId>()
    }

    /// Removes the entry at `pos` from all three columns by swap-remove
    /// (the last entry moves into `pos`).
    fn remove_at(&mut self, pos: usize) {
        self.entries.swap_remove(pos);
        self.expires.swap_remove(pos);
        self.ids.swap_remove(pos);
    }

    /// Removes the pseudonym with the given id; returns whether it was
    /// present.
    pub fn remove(&mut self, id: PseudonymId) -> bool {
        match self.ids.iter().position(|&i| i == id) {
            Some(pos) => {
                self.remove_at(pos);
                true
            }
            None => false,
        }
    }

    /// Drops every pseudonym that has expired by `now`; returns how many.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        let mut pos = 0;
        let t = now.as_f64();
        while pos < self.entries.len() {
            // Expiry is exclusive (`now < expires` is valid), matching
            // `Pseudonym::is_valid`.
            if t >= self.expires[pos] {
                self.remove_at(pos);
                removed += 1;
            } else {
                pos += 1;
            }
        }
        removed
    }

    fn push_entry(&mut self, arena: &mut PseudonymArena, p: Pseudonym) {
        let h = arena.intern(p);
        debug_assert!(!self.contains(p.id()), "inserting an id already present");
        self.entries.push(h);
        self.ids.push(p.id());
        self.expires
            .push(p.expires().map_or(f64::INFINITY, |e| e.as_f64()));
    }

    /// Inserts a single pseudonym if it is valid and not already present.
    ///
    /// Returns `false` (without evicting) when the cache is full; bulk
    /// insertion with eviction goes through [`Cache::absorb`].
    pub fn insert(&mut self, arena: &mut PseudonymArena, p: Pseudonym, now: SimTime) -> bool {
        if !p.is_valid(now) || self.contains(p.id()) || self.entries.len() >= self.capacity {
            return false;
        }
        self.push_entry(arena, p);
        true
    }

    /// Selects up to `count` distinct cached pseudonyms uniformly at random
    /// — the node's offer in a shuffle (its own pseudonym is appended by the
    /// protocol, not stored here).
    ///
    /// The pick permutation lives in a reusable scratch buffer, so the only
    /// allocation is the returned offer itself. The randomness consumed
    /// depends solely on the cache length, exactly as before.
    pub fn select_offer<R: Rng + ?Sized>(
        &mut self,
        arena: &PseudonymArena,
        count: usize,
        rng: &mut R,
    ) -> Vec<Pseudonym> {
        self.offer_scratch.clear();
        self.offer_scratch.extend(0..self.entries.len() as u32);
        self.offer_scratch.shuffle(rng);
        self.offer_scratch
            .iter()
            .take(count)
            .map(|&i| arena.get(self.entries[i as usize]))
            .collect()
    }

    /// Absorbs the peer's offer: inserts every valid, novel pseudonym,
    /// evicting — when full — first the entries in `just_sent` (Cyclon
    /// policy), then random victims.
    ///
    /// `own` is the receiving node's current pseudonym id, which is never
    /// cached ("with the exception of its own pseudonym, if present").
    /// Returns the number of newly inserted entries.
    pub fn absorb<R: Rng + ?Sized>(
        &mut self,
        arena: &mut PseudonymArena,
        received: &[Pseudonym],
        just_sent: &[PseudonymId],
        own: Option<PseudonymId>,
        now: SimTime,
        rng: &mut R,
    ) -> usize {
        self.purge_expired(now);
        let mut inserted = 0;
        let mut sent_pool = std::mem::take(&mut self.sent_scratch);
        sent_pool.clear();
        sent_pool.extend_from_slice(just_sent);
        for &p in received {
            if Some(p.id()) == own || !p.is_valid(now) || self.contains(p.id()) {
                continue;
            }
            if self.entries.len() >= self.capacity {
                // Prefer evicting what we just offered to the peer: the peer
                // now holds those entries, so overall cache diversity grows.
                let evicted = loop {
                    match sent_pool.pop() {
                        Some(victim) if self.contains(victim) => {
                            self.remove(victim);
                            break true;
                        }
                        Some(_) => continue,
                        None => break false,
                    }
                };
                if !evicted {
                    let victim = rng.gen_range(0..self.entries.len());
                    self.remove_at(victim);
                }
            }
            self.push_entry(arena, p);
            inserted += 1;
        }
        self.sent_scratch = sent_pool;
        inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pseudonym::PseudonymService;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (PseudonymService, PseudonymArena, StdRng) {
        (
            PseudonymService::new(1),
            PseudonymArena::new(),
            StdRng::seed_from_u64(2),
        )
    }

    fn mint_n(svc: &mut PseudonymService, n: usize, lifetime: Option<f64>) -> Vec<Pseudonym> {
        (0..n)
            .map(|i| svc.mint(i as u32, SimTime::ZERO, lifetime))
            .collect()
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        Cache::new(0);
    }

    #[test]
    fn insert_deduplicates() {
        let (mut svc, mut arena, _) = setup();
        let mut cache = Cache::new(4);
        let p = svc.mint(1, SimTime::ZERO, None);
        assert!(cache.insert(&mut arena, p, SimTime::ZERO));
        assert!(!cache.insert(&mut arena, p, SimTime::ZERO));
        assert_eq!(cache.len(), 1);
        assert_eq!(arena.len(), 1, "re-insert does not re-intern");
    }

    #[test]
    fn insert_rejects_expired() {
        let (mut svc, mut arena, _) = setup();
        let mut cache = Cache::new(4);
        let p = svc.mint(1, SimTime::ZERO, Some(5.0));
        assert!(!cache.insert(&mut arena, p, SimTime::new(5.0)));
        assert!(cache.is_empty());
    }

    #[test]
    fn purge_expired_removes_only_stale() {
        let (mut svc, mut arena, _) = setup();
        let mut cache = Cache::new(10);
        let short = svc.mint(1, SimTime::ZERO, Some(5.0));
        let long = svc.mint(2, SimTime::ZERO, Some(50.0));
        let eternal = svc.mint(3, SimTime::ZERO, None);
        for p in [short, long, eternal] {
            cache.insert(&mut arena, p, SimTime::ZERO);
        }
        assert_eq!(cache.purge_expired(SimTime::new(10.0)), 1);
        assert!(!cache.contains(short.id()));
        assert!(cache.contains(long.id()));
        assert!(cache.contains(eternal.id()));
    }

    #[test]
    fn iter_resolves_through_arena() {
        let (mut svc, mut arena, _) = setup();
        let mut cache = Cache::new(4);
        let ps = mint_n(&mut svc, 3, None);
        for &p in &ps {
            cache.insert(&mut arena, p, SimTime::ZERO);
        }
        let mut got: Vec<_> = cache.iter(&arena).map(|p| p.id()).collect();
        got.sort_unstable();
        let mut want: Vec<_> = ps.iter().map(|p| p.id()).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(cache.handles().len(), 3);
    }

    #[test]
    fn select_offer_is_distinct_and_bounded() {
        let (mut svc, mut arena, mut rng) = setup();
        let mut cache = Cache::new(20);
        for p in mint_n(&mut svc, 10, None) {
            cache.insert(&mut arena, p, SimTime::ZERO);
        }
        let offer = cache.select_offer(&arena, 4, &mut rng);
        assert_eq!(offer.len(), 4);
        let mut ids: Vec<_> = offer.iter().map(|p| p.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        // Asking for more than available returns everything.
        assert_eq!(cache.select_offer(&arena, 100, &mut rng).len(), 10);
    }

    #[test]
    fn select_offer_randomness_is_length_determined() {
        // The scratch-buffer rewrite must consume the RNG exactly as the
        // original `(0..len).collect()` + shuffle did: byte-identity of
        // every downstream draw depends on it.
        let (mut svc, mut arena, _) = setup();
        let mut cache = Cache::new(20);
        for p in mint_n(&mut svc, 7, None) {
            cache.insert(&mut arena, p, SimTime::ZERO);
        }
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let _ = cache.select_offer(&arena, 3, &mut a);
        let mut reference: Vec<usize> = (0..7).collect();
        reference.shuffle(&mut b);
        // Both consumed the same amount of randomness: the next draws match.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn absorb_skips_own_pseudonym() {
        let (mut svc, mut arena, mut rng) = setup();
        let mut cache = Cache::new(10);
        let own = svc.mint(0, SimTime::ZERO, None);
        let other = svc.mint(1, SimTime::ZERO, None);
        let n = cache.absorb(
            &mut arena,
            &[own, other],
            &[],
            Some(own.id()),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(n, 1);
        assert!(!cache.contains(own.id()));
        assert!(cache.contains(other.id()));
    }

    #[test]
    fn absorb_prefers_evicting_sent_entries() {
        let (mut svc, mut arena, mut rng) = setup();
        let mut cache = Cache::new(3);
        let residents = mint_n(&mut svc, 3, None);
        for &p in &residents {
            cache.insert(&mut arena, p, SimTime::ZERO);
        }
        let sent = residents[0].id();
        let incoming = svc.mint(9, SimTime::ZERO, None);
        cache.absorb(
            &mut arena,
            &[incoming],
            &[sent],
            None,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(cache.contains(incoming.id()));
        assert!(!cache.contains(sent), "sent entry should be the victim");
        assert!(cache.contains(residents[1].id()));
        assert!(cache.contains(residents[2].id()));
    }

    #[test]
    fn absorb_falls_back_to_random_eviction() {
        let (mut svc, mut arena, mut rng) = setup();
        let mut cache = Cache::new(2);
        for p in mint_n(&mut svc, 2, None) {
            cache.insert(&mut arena, p, SimTime::ZERO);
        }
        let incoming = svc.mint(9, SimTime::ZERO, None);
        cache.absorb(&mut arena, &[incoming], &[], None, SimTime::ZERO, &mut rng);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(incoming.id()));
    }

    #[test]
    fn absorb_never_exceeds_capacity() {
        let (mut svc, mut arena, mut rng) = setup();
        let mut cache = Cache::new(5);
        let batch = mint_n(&mut svc, 50, None);
        cache.absorb(&mut arena, &batch, &[], None, SimTime::ZERO, &mut rng);
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn remove_fixes_internal_index() {
        let (mut svc, mut arena, _) = setup();
        let mut cache = Cache::new(5);
        let ps = mint_n(&mut svc, 3, None);
        for &p in &ps {
            cache.insert(&mut arena, p, SimTime::ZERO);
        }
        assert!(cache.remove(ps[0].id()));
        // swap_remove moved the last entry into slot 0; it must stay findable.
        assert!(cache.contains(ps[2].id()));
        assert!(cache.remove(ps[2].id()));
        assert!(!cache.remove(ps[2].id()), "double remove is a no-op");
        assert_eq!(cache.len(), 1);
    }
}
