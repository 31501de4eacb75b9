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
//! inline (`expires`, `f64::INFINITY` = never) so the expiry sweep scans
//! one contiguous array instead of gathering from an arena that grows with
//! simulated time. The arena gives one handle per instance id, so the
//! handle is the entry's identity and membership is a scan of at most
//! `capacity` `u32`s. That is 12 bytes per entry, grown by doubling but
//! never past `capacity`, plus one inline watermark, `next_expiry`: no
//! later than the soonest expiry in the cache, so a sweep with nothing due
//! returns after one compare.
//!
//! Selecting and absorbing work in handles. The ideal link's exchange
//! calls the handle forms (`select_offer_into`, `absorb_handles`) with
//! buffers its driver owns and reuses, so they allocate nothing;
//! [`Cache::select_offer`] and [`Cache::absorb`] are the value forms for
//! callers that hold [`Pseudonym`]s, and wrap the same code.
//!
//! `absorb_handles`, which would otherwise scan `entries` once per
//! received pseudonym and twice per eviction, scans it once per call
//! instead: a single pass resolves every handle the call can ask about (the
//! received ones and the just-sent ones) into a `PosTable`, kept in step
//! with the call's own removals and pushes.

use crate::pseudonym::{Pseudonym, PseudonymArena, PseudonymHandle, PseudonymId};
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
/// assert!(cache.contains(&arena, a.id()));
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
    /// No later than the soonest entry of `expires`: every insert lowers
    /// it, every full sweep recomputes it, and a removal leaves it alone.
    next_expiry: f64,
}

/// Position marker of a [`PosTable`] slot no key has claimed.
const VACANT: u32 = u32::MAX;
/// Position marker of a key that is not in the cache right now.
const ABSENT: u32 = u32::MAX - 1;

/// Sixteen filter bits per slot at the paper's ℓ = 40 (79 keys, 256 slots).
const FILTER_BITS: usize = 4096;

/// The handle → position table of one [`Cache::absorb_handles`] call:
/// open addressing with linear probing over a fixed key set (registered up
/// front, never removed), at most half full. Only the positions change
/// while the call runs, so a slot index stays valid for the whole call.
/// Its storage outlives the call, so a caller that keeps the table reuses
/// it.
///
/// Most handles the call looks up are not keys (the cache's other
/// entries), so a one-hash bit filter answers those before the probe loop
/// and its unpredictable branches are reached.
#[derive(Debug, Clone)]
pub(crate) struct PosTable {
    slots: Vec<(PseudonymHandle, u32)>,
    shift: u32,
    filter: [u64; FILTER_BITS / 64],
}

impl Default for PosTable {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            shift: 0,
            filter: [0; FILTER_BITS / 64],
        }
    }
}

impl PosTable {
    /// Empties the table, with room for `keys` distinct handles.
    fn reset(&mut self, keys: usize) {
        let len = (2 * keys).next_power_of_two().max(2);
        self.slots.clear();
        self.slots.resize(len, (0, VACANT));
        self.shift = u64::BITS - len.trailing_zeros();
        self.filter = [0; FILTER_BITS / 64];
    }

    /// Handles are dense arena indices: multiplicative hashing spreads
    /// them over the top bits, which index the slots and the filter.
    fn hash(h: PseudonymHandle) -> u64 {
        u64::from(h).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The filter word and bit of `h`.
    fn filter_bit(h: PseudonymHandle) -> (usize, u64) {
        let bit = Self::hash(h) >> (u64::BITS - FILTER_BITS.trailing_zeros());
        ((bit / 64) as usize, 1 << (bit % 64))
    }

    /// The slot holding `h`, or the vacant slot where it would go.
    fn probe(&self, h: PseudonymHandle) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(h) >> self.shift) as usize;
        loop {
            let (key, pos) = self.slots[i];
            if pos == VACANT || key == h {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Makes `h` a key (not in the cache until [`PosTable::set`] says so).
    fn register(&mut self, h: PseudonymHandle) {
        let (word, bit) = Self::filter_bit(h);
        self.filter[word] |= bit;
        let i = self.probe(h);
        if self.slots[i].1 == VACANT {
            self.slots[i] = (h, ABSENT);
        }
    }

    /// Records `pos` for `h` if `h` is a key; other handles are ignored.
    fn set(&mut self, h: PseudonymHandle, pos: u32) {
        let (word, bit) = Self::filter_bit(h);
        if self.filter[word] & bit != 0 {
            let i = self.probe(h);
            if self.slots[i].1 != VACANT {
                self.slots[i].1 = pos;
            }
        }
    }
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
            next_expiry: f64::INFINITY,
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

    /// Whether a pseudonym with this id is cached (looked up in `arena`).
    pub fn contains(&self, arena: &PseudonymArena, id: PseudonymId) -> bool {
        arena.lookup(id).is_some_and(|h| self.entries.contains(&h))
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
    }

    /// Removes the entry at `pos` from both columns by swap-remove (the
    /// last entry moves into `pos`).
    fn remove_at(&mut self, pos: usize) {
        self.entries.swap_remove(pos);
        self.expires.swap_remove(pos);
    }

    /// Removes the pseudonym with the given id; returns whether it was
    /// present. `arena` is the one that interned the cache's entries.
    pub fn remove(&mut self, arena: &PseudonymArena, id: PseudonymId) -> bool {
        let pos = arena
            .lookup(id)
            .and_then(|h| self.entries.iter().position(|&e| e == h));
        if let Some(pos) = pos {
            self.remove_at(pos);
        }
        pos.is_some()
    }

    /// Drops every pseudonym that has expired by `now`; returns how many.
    /// Before the soonest expiry this is one compare.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let t = now.as_f64();
        // Expiry is exclusive (`now < expires` is valid), matching
        // `Pseudonym::is_valid`.
        if t < self.next_expiry {
            return 0;
        }
        let mut removed = 0;
        let mut pos = 0;
        let mut next = f64::INFINITY;
        while pos < self.entries.len() {
            let e = self.expires[pos];
            if t >= e {
                self.remove_at(pos);
                removed += 1;
            } else {
                next = next.min(e);
                pos += 1;
            }
        }
        self.next_expiry = next;
        removed
    }

    /// Appends an entry of pseudonym `p`; the columns grow by doubling,
    /// never past `capacity`.
    fn push_entry(&mut self, h: PseudonymHandle, p: Pseudonym) {
        debug_assert!(!self.entries.contains(&h), "handle already cached");
        let len = self.entries.len();
        if len == self.entries.capacity() {
            let grow = (2 * len).max(4).min(self.capacity) - len;
            self.entries.reserve_exact(grow);
            self.expires.reserve_exact(grow);
        }
        let expires = p.expires().map_or(f64::INFINITY, |e| e.as_f64());
        self.entries.push(h);
        self.expires.push(expires);
        self.next_expiry = self.next_expiry.min(expires);
    }

    /// Inserts a single pseudonym if it is valid and not already present.
    ///
    /// Returns `false` (without evicting) when the cache is full; bulk
    /// insertion with eviction goes through [`Cache::absorb`].
    pub fn insert(&mut self, arena: &mut PseudonymArena, p: Pseudonym, now: SimTime) -> bool {
        if !p.is_valid(now) || self.contains(arena, p.id()) || self.entries.len() >= self.capacity {
            return false;
        }
        self.push_entry(arena.intern(p), p);
        true
    }

    /// Selects up to `count` distinct cached pseudonyms uniformly at random
    /// — the node's offer in a shuffle (its own pseudonym is appended by the
    /// protocol, not stored here) — and returns their handles in `arena`.
    /// The value form of `select_offer_into`; the result's capacity is its
    /// length.
    pub fn select_offer<R: Rng + ?Sized>(
        &self,
        arena: &PseudonymArena,
        count: usize,
        rng: &mut R,
    ) -> Vec<PseudonymHandle> {
        debug_assert!(
            self.entries.len() <= arena.len(),
            "entries are distinct handles of arena"
        );
        let mut picks = Vec::new();
        self.select_offer_into(count, rng, &mut Vec::new(), &mut picks);
        picks
    }

    /// [`Cache::select_offer`] into `picks` (appended, after reserving
    /// exactly what they need), with `perm` as the permutation's storage.
    ///
    /// A forward partial Fisher–Yates: position `i` of the result is drawn
    /// from the entries not yet taken, so every ordered `count`-subset is
    /// equally likely and the randomness consumed is exactly
    /// `min(count, len)` bounded draws — nothing for an empty cache or a
    /// zero `count`.
    pub(crate) fn select_offer_into<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        perm: &mut Vec<u32>,
        picks: &mut Vec<PseudonymHandle>,
    ) {
        let n = self.entries.len();
        let take = count.min(n);
        perm.clear();
        perm.extend(0..n as u32);
        for i in 0..take {
            perm.swap(i, rng.gen_range(i..n));
        }
        picks.reserve_exact(take);
        picks.extend(perm[..take].iter().map(|&i| self.entries[i as usize]));
    }

    /// Absorbs the peer's offer: inserts every valid, novel pseudonym,
    /// evicting — when full — first the entries in `just_sent` (Cyclon
    /// policy; handles from [`Cache::select_offer`] on this cache), then
    /// random victims.
    ///
    /// `own` is the receiving node's current pseudonym id, which is never
    /// cached ("with the exception of its own pseudonym, if present").
    /// Returns the number of newly inserted entries.
    ///
    /// The value form of `absorb_handles`: it interns the valid, non-own
    /// received pseudonyms in received order — each ends up cached,
    /// inserted or already there — and absorbs their handles.
    pub fn absorb<R: Rng + ?Sized>(
        &mut self,
        arena: &mut PseudonymArena,
        received: &[Pseudonym],
        just_sent: &[PseudonymHandle],
        own: Option<PseudonymId>,
        now: SimTime,
        rng: &mut R,
    ) -> usize {
        let incoming: Vec<PseudonymHandle> = received
            .iter()
            .filter(|p| Some(p.id()) != own && p.is_valid(now))
            .map(|&p| arena.intern(p))
            .collect();
        let mut table = PosTable::default();
        self.absorb_handles(arena, &incoming, just_sent, now, rng, &mut table)
    }

    /// [`Cache::absorb`] of pseudonyms `arena` already holds. Every handle
    /// in `incoming` must be valid at `now` and not the receiving node's
    /// own pseudonym; `table` is storage, reused across calls.
    pub(crate) fn absorb_handles<R: Rng + ?Sized>(
        &mut self,
        arena: &PseudonymArena,
        incoming: &[PseudonymHandle],
        just_sent: &[PseudonymHandle],
        now: SimTime,
        rng: &mut R,
        table: &mut PosTable,
    ) -> usize {
        self.purge_expired(now);
        // One pass over the handle column answers every membership and
        // position question the loop below can ask.
        table.reset(incoming.len() + just_sent.len());
        for &h in incoming.iter().chain(just_sent) {
            table.register(h);
        }
        for (pos, &h) in self.entries.iter().enumerate() {
            table.set(h, pos as u32);
        }
        let mut inserted = 0;
        // Just-sent handles not yet tried as victims: `just_sent[..unsent]`,
        // taken from the back.
        let mut unsent = just_sent.len();
        for &h in incoming {
            let slot = table.probe(h);
            if table.slots[slot].1 != ABSENT {
                continue;
            }
            if self.entries.len() >= self.capacity {
                // Prefer evicting what we just offered to the peer: the peer
                // now holds those entries, so overall cache diversity grows.
                let victim = loop {
                    let Some(&sent) = just_sent[..unsent].last() else {
                        break rng.gen_range(0..self.entries.len());
                    };
                    unsent -= 1;
                    let pos = table.slots[table.probe(sent)].1;
                    if pos != ABSENT {
                        break pos as usize;
                    }
                };
                // Swap-remove: the victim goes absent and the last entry
                // inherits its position.
                table.set(self.entries[victim], ABSENT);
                self.remove_at(victim);
                if let Some(&moved) = self.entries.get(victim) {
                    table.set(moved, victim as u32);
                }
            }
            table.slots[slot].1 = self.entries.len() as u32;
            self.push_entry(h, arena.get(h));
            inserted += 1;
        }
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
        assert!(!cache.contains(&arena, short.id()));
        assert!(cache.contains(&arena, long.id()));
        assert!(cache.contains(&arena, eternal.id()));
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
        assert_eq!(cache.entries.len(), 3);
    }

    #[test]
    fn select_offer_is_distinct_and_bounded() {
        let (mut svc, mut arena, mut rng) = setup();
        let mut cache = Cache::new(20);
        for p in mint_n(&mut svc, 10, None) {
            cache.insert(&mut arena, p, SimTime::ZERO);
        }
        let mut offer = cache.select_offer(&arena, 4, &mut rng);
        assert_eq!(offer.len(), 4);
        assert!(offer.iter().all(|h| cache.entries.contains(h)));
        offer.sort_unstable();
        offer.dedup();
        assert_eq!(offer.len(), 4);
        // Asking for more than available returns everything.
        assert_eq!(cache.select_offer(&arena, 100, &mut rng).len(), 10);
    }

    #[test]
    fn select_offer_draws_only_what_it_sends() {
        let (mut svc, mut arena, _) = setup();
        let mut cache = Cache::new(20);
        let (mut a, mut b) = (StdRng::seed_from_u64(42), StdRng::seed_from_u64(42));
        // Nothing to pick from, or nothing asked for: no draw at all.
        assert!(cache.select_offer(&arena, 3, &mut a).is_empty());
        let members = mint_n(&mut svc, 10, None);
        for &p in &members {
            cache.insert(&mut arena, p, SimTime::ZERO);
        }
        assert!(cache.select_offer(&arena, 0, &mut a).is_empty());
        assert_eq!(a, b);
        // Otherwise one bounded draw per pseudonym sent, over the entries
        // not yet taken — also when the whole cache is asked for.
        for count in [1, 3, 9, 10, 11, 100] {
            let take = count.min(10);
            assert_eq!(cache.select_offer(&arena, count, &mut a).len(), take);
            for i in 0..take {
                let _ = b.gen_range(i..10);
            }
            assert_eq!(a, b, "count {count}");
        }
        // Every entry is equally likely in every output position: 200k
        // calls put 20k ± 134 (one standard deviation) in each of the 100
        // cells, so 5 % is seven deviations away.
        let calls = 200_000;
        let mut hits = [[0u32; 10]; 10];
        for _ in 0..calls {
            let offer = cache.select_offer(&arena, 10, &mut a);
            for (pos, &h) in offer.iter().enumerate() {
                let id = arena.get(h).id();
                hits[pos][members.iter().position(|m| m.id() == id).unwrap()] += 1;
            }
        }
        let expected = calls as f64 / 10.0;
        for (pos, row) in hits.iter().enumerate() {
            for (entry, &n) in row.iter().enumerate() {
                let off = (f64::from(n) - expected).abs() / expected;
                assert!(
                    off < 0.05,
                    "entry {entry} at position {pos}: {n} of {calls}"
                );
            }
        }
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
        assert!(!cache.contains(&arena, own.id()));
        assert!(cache.contains(&arena, other.id()));
    }

    #[test]
    fn absorb_prefers_evicting_sent_entries() {
        let (mut svc, mut arena, mut rng) = setup();
        let mut cache = Cache::new(3);
        let residents = mint_n(&mut svc, 3, None);
        for &p in &residents {
            cache.insert(&mut arena, p, SimTime::ZERO);
        }
        let sent = arena.lookup(residents[0].id()).unwrap();
        let incoming = svc.mint(9, SimTime::ZERO, None);
        cache.absorb(
            &mut arena,
            &[incoming],
            &[sent],
            None,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(cache.contains(&arena, incoming.id()));
        assert!(
            !cache.contains(&arena, residents[0].id()),
            "sent entry should be the victim"
        );
        assert!(cache.contains(&arena, residents[1].id()));
        assert!(cache.contains(&arena, residents[2].id()));
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
        assert!(cache.contains(&arena, incoming.id()));
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
        assert!(cache.remove(&arena, ps[0].id()));
        // swap_remove moved the last entry into slot 0; it must stay findable.
        assert!(cache.contains(&arena, ps[2].id()));
        assert!(cache.remove(&arena, ps[2].id()));
        assert!(
            !cache.remove(&arena, ps[2].id()),
            "double remove is a no-op"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn unknown_id_is_absent_and_never_interned() {
        let (mut svc, mut arena, _) = setup();
        let mut cache = Cache::new(5);
        for p in mint_n(&mut svc, 3, None) {
            cache.insert(&mut arena, p, SimTime::ZERO);
        }
        let stranger = svc.mint(7, SimTime::ZERO, None);
        assert!(!cache.contains(&arena, stranger.id()));
        assert!(!cache.remove(&arena, stranger.id()));
        assert_eq!(arena.len(), 3, "a lookup must not intern");
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn full_cache_costs_twelve_bytes_per_entry() {
        // Handle and expiry, nothing else, and no growth past `capacity`.
        for capacity in [1, 2, 3, 5, 400] {
            let (mut svc, mut arena, mut rng) = setup();
            let mut cache = Cache::new(capacity);
            let batch = mint_n(&mut svc, capacity, None);
            cache.absorb(&mut arena, &batch, &[], None, SimTime::ZERO, &mut rng);
            assert_eq!(cache.len(), capacity);
            assert_eq!(
                cache.approx_heap_bytes(),
                12 * capacity,
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn columns_grow_by_doubling_from_four_up_to_capacity() {
        // Capacity after k inserts: 4, 8, 16, … and never past `capacity`
        // (for capacity 10: 4, 8, 10), read through the heap accounting.
        for capacity in [1, 3, 4, 10, 400] {
            let (mut svc, mut arena, _) = setup();
            let mut cache = Cache::new(capacity);
            for (k, p) in (1..).zip(mint_n(&mut svc, capacity, None)) {
                assert!(cache.insert(&mut arena, p, SimTime::ZERO));
                let columns = (k as usize).next_power_of_two().max(4).min(capacity);
                assert_eq!(
                    cache.approx_heap_bytes(),
                    12 * columns,
                    "capacity {capacity}, {k} inserts"
                );
            }
        }
    }

    #[test]
    fn an_entry_due_before_the_watermark_is_purged_on_time() {
        // The watermark sits at 50 after the first purge; an entry due at 5
        // must lower it, whether it comes in by `insert` or by `absorb`.
        for by_absorb in [false, true] {
            let (mut svc, mut arena, mut rng) = setup();
            let mut cache = Cache::new(4);
            let late = svc.mint(1, SimTime::ZERO, Some(50.0));
            cache.insert(&mut arena, late, SimTime::ZERO);
            assert_eq!(cache.purge_expired(SimTime::new(1.0)), 0);
            let soon = svc.mint(2, SimTime::ZERO, Some(5.0));
            if by_absorb {
                cache.absorb(&mut arena, &[soon], &[], None, SimTime::new(2.0), &mut rng);
            } else {
                cache.insert(&mut arena, soon, SimTime::new(2.0));
            }
            assert_eq!(cache.purge_expired(SimTime::new(4.0)), 0);
            assert_eq!(cache.purge_expired(SimTime::new(5.0)), 1);
            assert!(!cache.contains(&arena, soon.id()));
            assert!(cache.contains(&arena, late.id()));
        }
    }

    #[test]
    fn purge_matches_a_watermark_free_scan_on_random_ops() {
        // `scan` has its watermark knocked down before every operation, so
        // each of its purges (its own and `absorb`'s) scans every entry.
        for seed in 0..200u64 {
            let mut gen = StdRng::seed_from_u64(seed);
            let mut svc = PseudonymService::new(seed);
            let pool: Vec<Pseudonym> = (0..24)
                .map(|i| {
                    let born = SimTime::new(gen.gen_range(0.0..20.0));
                    let lifetime =
                        [None, Some(2.0), Some(5.0), Some(9.0)][gen.gen_range(0..4usize)];
                    svc.mint(i, born, lifetime)
                })
                .collect();
            let capacity = [1usize, 3, 8, 16][gen.gen_range(0..4usize)];
            let (mut gated, mut scan) = (Cache::new(capacity), Cache::new(capacity));
            let mut arena = PseudonymArena::new();
            let mut rng_gated = StdRng::seed_from_u64(seed ^ 0x5EED);
            let mut rng_scan = rng_gated.clone();
            let mut now = SimTime::ZERO;
            for _ in 0..60 {
                scan.next_expiry = f64::NEG_INFINITY;
                let p = pool[gen.gen_range(0..pool.len())];
                match gen.gen_range(0..6) {
                    0 => assert_eq!(
                        gated.insert(&mut arena, p, now),
                        scan.insert(&mut arena, p, now)
                    ),
                    1 => assert_eq!(gated.remove(&arena, p.id()), scan.remove(&arena, p.id())),
                    2 => assert_eq!(gated.purge_expired(now), scan.purge_expired(now)),
                    3 => now += gen.gen_range(0.0..3.0),
                    _ => {
                        let received: Vec<Pseudonym> = (0..gen.gen_range(0..6))
                            .map(|_| pool[gen.gen_range(0..pool.len())])
                            .collect();
                        assert_eq!(
                            gated.absorb(&mut arena, &received, &[], None, now, &mut rng_gated),
                            scan.absorb(&mut arena, &received, &[], None, now, &mut rng_scan)
                        );
                    }
                }
                assert_eq!(gated.entries, scan.entries);
                assert_eq!(gated.expires, scan.expires);
                assert!(gated.expires.iter().all(|&e| gated.next_expiry <= e));
            }
        }
    }

    /// `absorb` as it was before the one-pass rewrite — a membership scan
    /// per received pseudonym, a position scan per just-sent victim, and
    /// each pseudonym interned only when it is inserted — kept as the
    /// oracle the rewrite is checked against.
    fn absorb_reference(
        cache: &mut Cache,
        arena: &mut PseudonymArena,
        received: &[Pseudonym],
        just_sent: &[PseudonymHandle],
        own: Option<PseudonymId>,
        now: SimTime,
        rng: &mut StdRng,
    ) -> usize {
        cache.purge_expired(now);
        let mut inserted = 0;
        let mut sent_pool = just_sent.to_vec();
        for &p in received {
            if Some(p.id()) == own || !p.is_valid(now) || cache.contains(arena, p.id()) {
                continue;
            }
            if cache.entries.len() >= cache.capacity {
                let victim = loop {
                    match sent_pool.pop() {
                        Some(h) => match cache.entries.iter().position(|&e| e == h) {
                            Some(pos) => break pos,
                            None => continue,
                        },
                        None => break rng.gen_range(0..cache.entries.len()),
                    }
                };
                cache.remove_at(victim);
            }
            cache.push_entry(arena.intern(p), p);
            inserted += 1;
        }
        inserted
    }

    /// Which of the cases the rewrite could get wrong the random sequences
    /// below actually produced.
    #[derive(Debug, Default)]
    struct Coverage {
        duplicate_received: bool,
        received_and_sent: bool,
        reinserted_after_eviction: bool,
        own_received: bool,
        expired_cached: bool,
        expired_received: bool,
        duplicate_sent: bool,
        capacity_one: bool,
        capacity_below_offer: bool,
        random_after_sent: bool,
    }

    /// Stand-in handles for pool pseudonyms the arena never saw: the pool
    /// is 24 pseudonyms, so no arena handle reaches this.
    const NOT_INTERNED: PseudonymHandle = 1000;

    fn has_duplicates<T: Ord + Clone>(keys: &[T]) -> bool {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).any(|w| w[0] == w[1])
    }

    /// Old and new `absorb`, side by side through random operation
    /// sequences: same entry order, same return values, same arena, same
    /// RNG stream.
    ///
    /// Just-sent handles are mostly cache entries, but not only: a
    /// pseudonym of the pool the arena never saw stands in as
    /// `NOT_INTERNED + its pool index`, a handle no entry can have.
    #[test]
    fn absorb_matches_reference_on_random_ops() {
        let mut seen = Coverage::default();
        for seed in 0..400u64 {
            let mut gen = StdRng::seed_from_u64(seed);
            let mut svc = PseudonymService::new(seed);
            let pool: Vec<Pseudonym> = (0..24)
                .map(|i| {
                    let lifetime =
                        [None, Some(4.0), Some(9.0), Some(30.0)][gen.gen_range(0..4usize)];
                    svc.mint(i, SimTime::ZERO, lifetime)
                })
                .collect();
            let capacity = [1usize, 2, 3, 5, 8, 16][gen.gen_range(0..6usize)];
            let (mut new, mut old) = (Cache::new(capacity), Cache::new(capacity));
            let (mut arena_new, mut arena_old) = (PseudonymArena::new(), PseudonymArena::new());
            let mut rng_new = StdRng::seed_from_u64(seed ^ 0xABCD);
            let mut rng_old = rng_new.clone();
            let mut now = SimTime::ZERO;
            for _ in 0..40 {
                match gen.gen_range(0..8) {
                    0 => {
                        let p = pool[gen.gen_range(0..pool.len())];
                        assert_eq!(
                            new.insert(&mut arena_new, p, now),
                            old.insert(&mut arena_old, p, now)
                        );
                    }
                    1 => {
                        let id = pool[gen.gen_range(0..pool.len())].id();
                        assert_eq!(new.remove(&arena_new, id), old.remove(&arena_old, id));
                    }
                    2 => assert_eq!(new.purge_expired(now), old.purge_expired(now)),
                    3 => now += gen.gen_range(0.0..3.0),
                    _ => {
                        // Draw with replacement, so ids repeat inside
                        // `received`, inside `just_sent` and across both.
                        let received: Vec<Pseudonym> = (0..gen.gen_range(0..12))
                            .map(|_| pool[gen.gen_range(0..pool.len())])
                            .collect();
                        let just_sent: Vec<PseudonymHandle> = (0..gen.gen_range(0..6))
                            .map(|_| {
                                if new.is_empty() || gen.gen_bool(0.3) {
                                    let i = gen.gen_range(0..pool.len());
                                    arena_new
                                        .lookup(pool[i].id())
                                        .unwrap_or(NOT_INTERNED + i as u32)
                                } else {
                                    new.entries[gen.gen_range(0..new.len())]
                                }
                            })
                            .collect();
                        let own = match gen.gen_range(0..3) {
                            0 => None,
                            1 => received.first().map(|p| p.id()),
                            _ => Some(pool[gen.gen_range(0..pool.len())].id()),
                        };

                        let t = now.as_f64();
                        let live = |p: &&Pseudonym| p.is_valid(now) && Some(p.id()) != own;
                        let live_ids: Vec<_> =
                            received.iter().filter(live).map(|p| p.id()).collect();
                        let cached_live = |h: &PseudonymHandle| {
                            old.entries
                                .iter()
                                .zip(&old.expires)
                                .any(|(e, &x)| e == h && t < x)
                        };
                        let live_handles: Vec<_> = live_ids
                            .iter()
                            .filter_map(|&id| arena_old.lookup(id))
                            .collect();
                        let mut novel: Vec<_> = live_ids
                            .iter()
                            .filter(|&&id| !arena_old.lookup(id).is_some_and(|h| cached_live(&h)))
                            .collect();
                        novel.sort_unstable();
                        novel.dedup();
                        let sent_cached = just_sent.iter().any(cached_live);
                        seen.duplicate_received |= has_duplicates(&live_ids);
                        seen.received_and_sent |=
                            live_handles.iter().any(|h| just_sent.contains(h));
                        seen.own_received |= received.iter().any(|p| Some(p.id()) == own);
                        seen.expired_cached |= old.expires.iter().any(|&e| t >= e);
                        seen.expired_received |= received.iter().any(|p| !p.is_valid(now));
                        seen.duplicate_sent |= has_duplicates(&just_sent);
                        seen.capacity_one |= capacity == 1 && !live_ids.is_empty();
                        seen.capacity_below_offer |= capacity < novel.len();

                        let rng_before = rng_new.clone();
                        let inserted = new.absorb(
                            &mut arena_new,
                            &received,
                            &just_sent,
                            own,
                            now,
                            &mut rng_new,
                        );
                        assert_eq!(
                            inserted,
                            absorb_reference(
                                &mut old,
                                &mut arena_old,
                                &received,
                                &just_sent,
                                own,
                                now,
                                &mut rng_old
                            )
                        );
                        // More insertions than novel ids: some id went in,
                        // was evicted, and went in again; without repeats in
                        // `received` it was one cached when the call began.
                        seen.reinserted_after_eviction |=
                            inserted > novel.len() && !has_duplicates(&live_ids);
                        seen.random_after_sent |= sent_cached && rng_new != rng_before;
                    }
                }
                assert_eq!(new.entries, old.entries);
                assert_eq!(new.expires, old.expires);
                assert!(new.len() <= capacity);
                assert_eq!(arena_new.len(), arena_old.len());
                assert!((0..arena_new.len() as u32).all(|h| arena_new.get(h) == arena_old.get(h)));
                assert_eq!(rng_new, rng_old);
            }
            assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>());
        }
        let all = format!("{seen:?}");
        assert!(!all.contains("false"), "a case was never generated: {all}");
    }

    #[test]
    fn absorb_reinserts_a_cached_id_evicted_earlier_in_the_call() {
        // `back` is cached when the call begins, is the just-sent victim
        // of the first insertion, and is then received itself: it must go
        // back in (at the end), evicting at random since the pool is spent.
        let (mut svc, mut arena, mut rng) = setup();
        let ps = mint_n(&mut svc, 4, None);
        let (stay, back, fresh) = (ps[0], ps[1], ps[2]);
        let mut cache = Cache::new(2);
        cache.insert(&mut arena, stay, SimTime::ZERO);
        cache.insert(&mut arena, back, SimTime::ZERO);
        let mut reference = cache.clone();
        let (mut ref_arena, mut ref_rng) = (arena.clone(), rng.clone());
        let sent = arena.lookup(back.id()).unwrap();
        let n = cache.absorb(
            &mut arena,
            &[fresh, back],
            &[sent],
            None,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(n, 2);
        assert_eq!(cache.entries.last(), Some(&sent));
        assert_eq!(
            n,
            absorb_reference(
                &mut reference,
                &mut ref_arena,
                &[fresh, back],
                &[sent],
                None,
                SimTime::ZERO,
                &mut ref_rng
            )
        );
        assert_eq!(cache.entries, reference.entries);
        assert_eq!(rng, ref_rng);
    }
}
