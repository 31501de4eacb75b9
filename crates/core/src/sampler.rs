//! The Brahms-style min-wise pseudonym sampler (Section III-D2).
//!
//! Each node keeps a list `L` of `S` slots. Each slot holds a pair
//! `(P, R)`: `R` is a fixed random reference value chosen at start-up and
//! never changed; `P` is the sampled pseudonym (possibly empty). A received
//! pseudonym `P'` replaces `P` when
//!
//! 1. the slot is empty, or
//! 2. `P'` is numerically closer to `R` than `P`, or
//! 3. `P'` is as close to `R` as `P` but expires later.
//!
//! Because each slot retains the minimum-distance pseudonym ever offered to
//! it, the set of kept pseudonyms "will always be a random sample of all
//! the pseudonyms `n` has received ... regardless of how frequently any
//! pseudonym is received" — the property (from Brahms) that defeats
//! frequency-biased gossip.
//!
//! # Memory layout
//!
//! The sampler is structure-of-arrays: references, slot occupancy
//! (4-byte [`PseudonymHandle`]s into the executor's [`PseudonymArena`]),
//! slot distances and slot expiries live in parallel flat vectors. The
//! distance column caches what the replacement rules compare against — the
//! occupant's distance to the slot's reference, fixed for as long as the
//! occupant stays — so an offer computes one distance per slot it visits,
//! rejects on a single `u128` compare, and never dereferences the arena or
//! hashes an id unless a slot takes the pseudonym.
//!
//! Once a slot is occupied the references are **sorted**, and one more
//! field, `max_dist`, holds the largest entry of the distance column
//! (`u128::MAX` while any slot is vacant). A slot can take an offer only
//! if the offer is at least as close to its reference as its occupant is,
//! hence at most `max_dist` away; under either metric the references that
//! close to the offered bits form one contiguous run of the sorted column,
//! so [`Sampler::offer`] visits that run and nothing else — once the slots
//! hold good minima, a fraction of a slot per offer on average instead of
//! all `S`.
//!
//! The references are put in order by the first offer into an *empty*
//! sampler, not by [`Sampler::new`]: while no slot has an occupant no slot
//! has state, so sorting the one column permutes nothing else, and building
//! an overlay (one sampler per node, most of them idle for a while) pays
//! nothing for it. The same step allocates the other three slot columns
//! (28 B per slot), so a sampler that was never offered anything holds its
//! references only.
//!
//! Sorting renumbers the slots relative to the order their references were
//! drawn in, and nothing can tell. A slot's state depends only on its own
//! reference and the sequence of offers; the link set is keyed by
//! pseudonym id, and the reference counting behind it commutes within one
//! `offer`, `purge_expired` or `evict` (each call releases an occupant
//! once per slot it loses and retains the newcomer once per slot it gains,
//! so the final counts — and therefore `additions`, `removals` and the one
//! arena `intern` — are the same in any slot order). The recency ablation
//! fills slots round-robin and never reads a reference at all.
//!
//! The link set (distinct sampled pseudonyms) is a sorted parallel triple
//! of vectors, which makes [`Sampler::links_iter`] a pre-sorted resolve.
//!
//! One inline watermark, `next_expiry`, is no later than the soonest
//! occupant's expiry, so [`Sampler::purge_expired`] with nothing due
//! returns after one compare.
//!
//! Offers come in two forms over one implementation: [`Sampler::offer`]
//! takes a [`Pseudonym`] and interns it only if a slot keeps it;
//! `offer_handle` takes a handle the arena already holds, which is how the
//! ideal link's exchange offers what it received.

use crate::config::DistanceMetric;
use crate::pseudonym::{Pseudonym, PseudonymArena, PseudonymHandle, PseudonymId};
use rand::Rng;
use veil_sim::SimTime;

/// Slot-occupancy sentinel for "empty". The arena traps long before handle
/// values get anywhere near this (2^32 interned pseudonyms ≈ 200 GB).
const EMPTY: PseudonymHandle = PseudonymHandle::MAX;

/// The per-node pseudonym sampler.
///
/// Tracks, besides the slots themselves, the *link set* — the distinct
/// pseudonyms present in at least one slot — and cumulative counters of
/// link additions and removals, which drive the paper's link-replacement
/// metric (Figure 9).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use veil_core::config::DistanceMetric;
/// use veil_core::pseudonym::{PseudonymArena, PseudonymService};
/// use veil_core::sampler::Sampler;
/// use veil_sim::SimTime;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut sampler = Sampler::new(8, DistanceMetric::Absolute, true, &mut rng);
/// let mut svc = PseudonymService::new(1);
/// let mut arena = PseudonymArena::new();
/// let p = svc.mint(3, SimTime::ZERO, None);
/// sampler.offer(&mut arena, p, SimTime::ZERO);
/// assert_eq!(sampler.link_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Sampler {
    metric: DistanceMetric,
    minwise: bool,
    /// Fixed per-slot reference values, drawn once at start-up; in
    /// ascending order whenever a slot is occupied.
    refs: Vec<u128>,
    /// Arena handle of each slot's current pseudonym (`EMPTY` = vacant);
    /// empty, like the two columns below, until the first offer.
    slot_entry: Vec<PseudonymHandle>,
    /// Distance of each slot's pseudonym to the slot's reference
    /// (`u128::MAX` while vacant, so every offer is at least as close).
    slot_dist: Vec<u128>,
    /// The largest entry of `slot_dist`: no slot takes an offer farther
    /// than this from its reference.
    max_dist: u128,
    /// Expiry of each slot's pseudonym (`INFINITY` = never), mirrored
    /// inline for the tie-break and the expiry sweep.
    slot_expires: Vec<f64>,
    /// No later than the soonest expiry of an occupied slot: every
    /// `set_slot` lowers it, every full sweep recomputes it, and clearing a
    /// slot leaves it alone.
    next_expiry: f64,
    /// The link set, sorted by instance id (parallel vectors): distinct
    /// sampled pseudonyms with their handle and slot-occupancy count.
    link_ids: Vec<PseudonymId>,
    link_handles: Vec<PseudonymHandle>,
    link_counts: Vec<u32>,
    next_ring: usize,
    additions: u64,
    removals: u64,
}

impl Sampler {
    /// Creates a sampler with `slot_count` slots whose reference values are
    /// drawn from `rng` ("the reference values are never removed or changed
    /// afterwards").
    ///
    /// `minwise = false` disables rule 2/3 and instead fills slots
    /// round-robin with the most recently received pseudonyms — the
    /// ablation baseline showing why Brahms-style sampling matters.
    pub fn new<R: Rng + ?Sized>(
        slot_count: usize,
        metric: DistanceMetric,
        minwise: bool,
        rng: &mut R,
    ) -> Self {
        // One draw per slot, in the order the struct-of-slots layout drew
        // them.
        let refs = (0..slot_count).map(|_| rng.gen()).collect();
        Self::with_refs(refs, metric, minwise)
    }

    /// An empty sampler over the given reference values. The slot columns
    /// stay unallocated until the first offer ([`Sampler::open_slots`]).
    fn with_refs(refs: Vec<u128>, metric: DistanceMetric, minwise: bool) -> Self {
        Self {
            metric,
            minwise,
            refs,
            slot_entry: Vec::new(),
            slot_dist: Vec::new(),
            max_dist: u128::MAX,
            slot_expires: Vec::new(),
            next_expiry: f64::INFINITY,
            link_ids: Vec::new(),
            link_handles: Vec::new(),
            link_counts: Vec::new(),
            next_ring: 0,
            additions: 0,
            removals: 0,
        }
    }

    /// Number of slots `S`.
    pub fn slot_count(&self) -> usize {
        self.refs.len()
    }

    /// Number of distinct pseudonyms currently sampled (the pseudonym-link
    /// count; at most `slot_count`).
    pub fn link_count(&self) -> usize {
        self.link_ids.len()
    }

    /// Whether the pseudonym with this id occupies at least one slot.
    pub fn contains(&self, id: PseudonymId) -> bool {
        self.link_ids.binary_search(&id).is_ok()
    }

    /// Iterates over the links in ascending instance-id order, resolving
    /// each through the arena, without allocating.
    pub fn links_iter<'a>(
        &'a self,
        arena: &'a PseudonymArena,
    ) -> impl Iterator<Item = Pseudonym> + 'a {
        // The link set is kept sorted by id, so this is a pure resolve: no
        // dedup map, no sort — the order the old implementation produced.
        self.link_handles.iter().map(|&h| arena.get(h))
    }

    /// Cumulative count of pseudonyms that entered the link set.
    pub fn additions(&self) -> u64 {
        self.additions
    }

    /// Cumulative count of pseudonyms that left the link set — through
    /// displacement by closer pseudonyms or through expiry. This is the
    /// paper's "links replaced" quantity.
    pub fn removals(&self) -> u64 {
        self.removals
    }

    /// Approximate heap footprint of this sampler in bytes.
    pub fn approx_heap_bytes(&self) -> usize {
        self.refs.capacity() * std::mem::size_of::<u128>()
            + self.slot_entry.capacity() * std::mem::size_of::<PseudonymHandle>()
            + self.slot_dist.capacity() * std::mem::size_of::<u128>()
            + self.slot_expires.capacity() * std::mem::size_of::<f64>()
            + self.link_ids.capacity() * std::mem::size_of::<PseudonymId>()
            + self.link_handles.capacity() * std::mem::size_of::<PseudonymHandle>()
            + self.link_counts.capacity() * std::mem::size_of::<u32>()
    }

    fn retain_entry(&mut self, id: PseudonymId, h: PseudonymHandle) {
        match self.link_ids.binary_search(&id) {
            Ok(i) => self.link_counts[i] += 1,
            Err(i) => {
                self.link_ids.insert(i, id);
                self.link_handles.insert(i, h);
                self.link_counts.insert(i, 1);
                self.additions += 1;
            }
        }
    }

    fn release_entry(&mut self, h: PseudonymHandle) {
        // The link set is bounded by the slot count, so a linear scan over
        // flat u32s beats carrying the id around just to binary-search.
        let i = self
            .link_handles
            .iter()
            .position(|&lh| lh == h)
            .expect("released pseudonym must be referenced");
        self.link_counts[i] -= 1;
        if self.link_counts[i] == 0 {
            self.link_ids.remove(i);
            self.link_handles.remove(i);
            self.link_counts.remove(i);
            self.removals += 1;
        }
    }

    /// Allocates the slot columns, every slot vacant, unless they already
    /// are. Until then the sampler reads as all-vacant: the sweeps walk
    /// empty columns and `empty_slots` counts every slot.
    fn open_slots(&mut self) {
        if self.slot_entry.is_empty() {
            let slots = self.refs.len();
            self.slot_entry = vec![EMPTY; slots];
            self.slot_dist = vec![u128::MAX; slots];
            self.slot_expires = vec![0.0; slots];
        }
    }

    /// Empties slot `idx`, which must be occupied.
    fn clear_slot(&mut self, idx: usize) {
        let h = std::mem::replace(&mut self.slot_entry[idx], EMPTY);
        self.slot_dist[idx] = u128::MAX;
        self.max_dist = u128::MAX;
        self.release_entry(h);
    }

    fn set_slot(&mut self, idx: usize, h: PseudonymHandle, id: PseudonymId, p: Pseudonym) {
        let cur = self.slot_entry[idx];
        debug_assert_ne!(cur, h, "a slot never replaces its own occupant");
        if cur != EMPTY {
            self.release_entry(cur);
        }
        self.slot_entry[idx] = h;
        self.slot_dist[idx] = distance(p.bits(), self.refs[idx], self.metric);
        self.max_dist = self.slot_dist.iter().copied().max().unwrap_or(u128::MAX);
        let expires = p.expires().map_or(f64::INFINITY, |e| e.as_f64());
        self.slot_expires[idx] = expires;
        self.next_expiry = self.next_expiry.min(expires);
        self.retain_entry(id, h);
    }

    /// The inclusive range of reference values a slot must lie in to be
    /// able to take a pseudonym with these bits: every reference within
    /// `max_dist` of `bits` is inside it. Under the absolute metric that is
    /// the interval around `bits`; under XOR a distance of at most
    /// `max_dist` has no bit above `max_dist`'s highest, so the reference
    /// agrees with `bits` on all of those.
    fn window(&self, bits: u128) -> (u128, u128) {
        match self.metric {
            DistanceMetric::Absolute => (
                bits.saturating_sub(self.max_dist),
                bits.saturating_add(self.max_dist),
            ),
            DistanceMetric::Xor => {
                let mask = u128::MAX
                    .checked_shr(self.max_dist.leading_zeros())
                    .unwrap_or(0);
                (bits & !mask, bits | mask)
            }
        }
    }

    /// Offers a received pseudonym to the slots, applying the paper's
    /// three replacement rules. Returns `true` if any slot changed.
    ///
    /// Only the slots whose reference lies in `Sampler::window` are
    /// visited; every other slot holds something strictly closer and would
    /// reject the offer on rule 2.
    ///
    /// The pseudonym is interned into `arena` only if some slot actually
    /// keeps it, so rejected offers (the common case once slots hold good
    /// minima) leave the arena untouched.
    ///
    /// Expired pseudonyms are ignored. The caller (the protocol layer)
    /// filters out the node's own pseudonym.
    pub fn offer(&mut self, arena: &mut PseudonymArena, p: Pseudonym, now: SimTime) -> bool {
        self.offer_with(p, now, || arena.intern(p))
    }

    /// [`Sampler::offer`] of the pseudonym behind `h`, a handle of `arena`.
    pub(crate) fn offer_handle(
        &mut self,
        arena: &PseudonymArena,
        h: PseudonymHandle,
        now: SimTime,
    ) -> bool {
        self.offer_with(arena.get(h), now, || h)
    }

    /// The one implementation of both offer forms: `intern` yields `p`'s
    /// handle, and is called at most once, when a slot first keeps `p`.
    fn offer_with(
        &mut self,
        p: Pseudonym,
        now: SimTime,
        mut intern: impl FnMut() -> PseudonymHandle,
    ) -> bool {
        if !p.is_valid(now) || self.refs.is_empty() {
            return false;
        }
        if !self.minwise {
            // Ablation: round-robin recency buffer.
            if self.contains(p.id()) {
                return false;
            }
            self.open_slots();
            let idx = self.next_ring % self.refs.len();
            self.next_ring = self.next_ring.wrapping_add(1);
            let h = intern();
            self.set_slot(idx, h, p.id(), p);
            return true;
        }
        if self.link_ids.is_empty() {
            // Every slot is vacant, so the reference column is the only one
            // with anything in it: the moment to put it in order (the first
            // offer, or — already sorted — the first after losing every
            // link), and to allocate the other columns.
            self.refs.sort_unstable();
            self.open_slots();
        }
        let p_bits = p.bits();
        let p_expires = p.expires().map_or(f64::INFINITY, |e| e.as_f64());
        let (lo, hi) = self.window(p_bits);
        // The references are uniform, so the first one at or above `lo`
        // sits a slot or two from where `lo` itself would rank.
        let slots = self.refs.len();
        let mut first = expected_rank(lo, slots);
        while first > 0 && self.refs[first - 1] >= lo {
            first -= 1;
        }
        while first < slots && self.refs[first] < lo {
            first += 1;
        }
        let mut handle = None;
        for idx in first..slots {
            if self.refs[idx] > hi {
                break;
            }
            let d_new = distance(p_bits, self.refs[idx], self.metric);
            let d_old = self.slot_dist[idx];
            if d_new > d_old {
                continue;
            }
            // Rule 3 tie-break under the inline encoding: `INFINITY` (never
            // expires) beats every finite expiry and ties with itself. A
            // slot already holding this very instance ties on distance and
            // on expiry, so the strict `>` keeps it without comparing
            // handles. A vacant slot ties only with an offer at the maximal
            // distance, which fills it like any other.
            if d_new == d_old
                && p_expires <= self.slot_expires[idx]
                && self.slot_entry[idx] != EMPTY
            {
                continue;
            }
            let h = *handle.get_or_insert_with(&mut intern);
            self.set_slot(idx, h, p.id(), p);
        }
        handle.is_some()
    }

    /// Clears every slot whose pseudonym has expired by `now`
    /// ("pseudonyms are automatically removed from `n.L` when they expire,
    /// and their corresponding slots become empty").
    ///
    /// Returns the number of distinct pseudonyms removed from the link set.
    /// Before the soonest expiry this is one compare.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let t = now.as_f64();
        // Expiry is exclusive (`now < expires` is valid), matching
        // `Pseudonym::is_valid`.
        if t < self.next_expiry {
            return 0;
        }
        let before = self.removals;
        let mut next = f64::INFINITY;
        for idx in 0..self.slot_entry.len() {
            if self.slot_entry[idx] == EMPTY {
                continue;
            }
            let e = self.slot_expires[idx];
            if t >= e {
                self.clear_slot(idx);
            } else {
                next = next.min(e);
            }
        }
        self.next_expiry = next;
        (self.removals - before) as usize
    }

    /// Number of currently empty slots.
    pub fn empty_slots(&self) -> usize {
        self.slot_count() - self.slot_entry.iter().filter(|&&h| h != EMPTY).count()
    }

    /// Evicts the pseudonym with this id from every slot it occupies —
    /// Cyclon-style recovery when the peer behind it proves unresponsive.
    /// Returns whether anything was removed. The freed slots resume normal
    /// min-wise sampling, so a healthier pseudonym can take the place.
    pub fn evict(&mut self, id: PseudonymId) -> bool {
        // Any slotted pseudonym is in the link set, so an id miss here
        // means no slot holds it.
        let Ok(i) = self.link_ids.binary_search(&id) else {
            return false;
        };
        let h = self.link_handles[i];
        for idx in 0..self.slot_entry.len() {
            if self.slot_entry[idx] == h {
                self.clear_slot(idx);
            }
        }
        true
    }
}

/// Distance between raw pseudonym bits and a reference value; mirrors
/// [`Pseudonym::distance_to`] for the inline slot mirror.
fn distance(bits: u128, reference: u128, metric: DistanceMetric) -> u128 {
    match metric {
        DistanceMetric::Absolute => bits.abs_diff(reference),
        DistanceMetric::Xor => bits ^ reference,
    }
}

/// The rank a value would take among `slots` sorted uniform draws:
/// `⌊r · slots / 2¹²⁸⌋`, from the top 64 bits of `r`. Always below `slots`
/// (0 for none).
fn expected_rank(r: u128, slots: usize) -> usize {
    (((r >> 64) * slots as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pseudonym::PseudonymService;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler(slots: usize, seed: u64) -> Sampler {
        let mut rng = StdRng::seed_from_u64(seed);
        Sampler::new(slots, DistanceMetric::Absolute, true, &mut rng)
    }

    /// The pseudonym currently held by slot `idx`, if any.
    fn slot_entry(s: &Sampler, arena: &PseudonymArena, idx: usize) -> Option<Pseudonym> {
        match s.slot_entry[idx] {
            EMPTY => None,
            h => Some(arena.get(h)),
        }
    }

    #[test]
    fn empty_sampler_has_no_links() {
        let s = sampler(4, 1);
        let arena = PseudonymArena::new();
        assert_eq!(s.slot_count(), 4);
        assert_eq!(s.link_count(), 0);
        assert_eq!(s.empty_slots(), 4);
        assert!(s.links_iter(&arena).next().is_none());
        // Only the references are allocated before the first offer.
        assert_eq!(s.approx_heap_bytes(), 4 * std::mem::size_of::<u128>());
    }

    #[test]
    fn zero_slot_sampler_rejects_everything() {
        let mut s = sampler(0, 1);
        let mut svc = PseudonymService::new(1);
        let mut arena = PseudonymArena::new();
        let p = svc.mint(0, SimTime::ZERO, None);
        assert!(!s.offer(&mut arena, p, SimTime::ZERO));
        assert_eq!(s.link_count(), 0);
    }

    #[test]
    fn evict_removes_pseudonym_from_all_slots() {
        let mut s = sampler(4, 9);
        let mut svc = PseudonymService::new(9);
        let mut arena = PseudonymArena::new();
        let p = svc.mint(0, SimTime::ZERO, None);
        s.offer(&mut arena, p, SimTime::ZERO);
        assert!(s.contains(p.id()));
        let removed_before = s.removals();
        assert!(s.evict(p.id()));
        assert!(!s.contains(p.id()));
        assert_eq!(s.link_count(), 0);
        assert_eq!(s.empty_slots(), 4);
        assert_eq!(s.removals(), removed_before + 1, "one link removal");
        assert!(!s.evict(p.id()), "second evict is a no-op");
        // The freed slots accept new samples again.
        let q = svc.mint(1, SimTime::ZERO, None);
        assert!(s.offer(&mut arena, q, SimTime::ZERO));
        assert!(s.contains(q.id()));
    }

    #[test]
    fn first_offer_fills_all_slots() {
        let mut s = sampler(4, 2);
        let mut svc = PseudonymService::new(2);
        let mut arena = PseudonymArena::new();
        let p = svc.mint(0, SimTime::ZERO, None);
        assert!(s.offer(&mut arena, p, SimTime::ZERO));
        assert_eq!(s.empty_slots(), 0);
        assert_eq!(s.link_count(), 1, "one distinct pseudonym in 4 slots");
        assert_eq!(s.additions(), 1);
    }

    #[test]
    fn rejected_offers_do_not_grow_the_arena() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Sampler::new(1, DistanceMetric::Absolute, true, &mut rng);
        let reference = s.refs[0];
        let mut svc = PseudonymService::new(3);
        let mut arena = PseudonymArena::new();
        let mut far = svc.mint(0, SimTime::ZERO, None);
        let mut near = svc.mint(1, SimTime::ZERO, None);
        if near.distance_to(reference, DistanceMetric::Absolute)
            > far.distance_to(reference, DistanceMetric::Absolute)
        {
            std::mem::swap(&mut far, &mut near);
        }
        s.offer(&mut arena, near, SimTime::ZERO);
        assert_eq!(arena.len(), 1);
        // The farther pseudonym is rejected by every slot: interning it
        // would bloat the arena with a value nobody references.
        assert!(!s.offer(&mut arena, far, SimTime::ZERO));
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn closer_pseudonym_displaces() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Sampler::new(1, DistanceMetric::Absolute, true, &mut rng);
        let reference = s.refs[0];
        let mut svc = PseudonymService::new(3);
        let mut arena = PseudonymArena::new();
        // Mint until we find two pseudonyms with known distance ordering.
        let mut far = svc.mint(0, SimTime::ZERO, None);
        let mut near = svc.mint(1, SimTime::ZERO, None);
        if near.distance_to(reference, DistanceMetric::Absolute)
            > far.distance_to(reference, DistanceMetric::Absolute)
        {
            std::mem::swap(&mut far, &mut near);
        }
        s.offer(&mut arena, far, SimTime::ZERO);
        assert!(s.contains(far.id()));
        s.offer(&mut arena, near, SimTime::ZERO);
        assert!(s.contains(near.id()));
        assert!(!s.contains(far.id()));
        assert_eq!(s.removals(), 1);
        // The farther one can never displace the nearer one back.
        assert!(!s.offer(&mut arena, far, SimTime::ZERO));
    }

    #[test]
    fn kept_pseudonym_is_global_minimum() {
        // Property: after offering many pseudonyms, each slot holds the
        // minimum-distance one among all offered.
        let mut s = sampler(6, 4);
        let mut svc = PseudonymService::new(4);
        let mut arena = PseudonymArena::new();
        let offered: Vec<Pseudonym> = (0..200).map(|i| svc.mint(i, SimTime::ZERO, None)).collect();
        for &p in &offered {
            s.offer(&mut arena, p, SimTime::ZERO);
        }
        for idx in 0..s.slot_count() {
            let kept = slot_entry(&s, &arena, idx).expect("slot filled");
            let kept_d = kept.distance_to(s.refs[idx], DistanceMetric::Absolute);
            let min_d = offered
                .iter()
                .map(|p| p.distance_to(s.refs[idx], DistanceMetric::Absolute))
                .min()
                .unwrap();
            assert_eq!(kept_d, min_d);
            // The cached distance matches the arena's canonical copy.
            assert_eq!(s.slot_dist[idx], kept_d);
        }
    }

    /// A one-slot sampler and the bits that sit at distance 5 from its
    /// reference, for building distinct pseudonyms that tie on distance.
    fn one_slot_and_tying_bits(metric: DistanceMetric) -> (Sampler, u128) {
        let mut rng = StdRng::seed_from_u64(5);
        let s = Sampler::new(1, metric, true, &mut rng);
        let bits = match metric {
            DistanceMetric::Absolute => s.refs[0].wrapping_add(5),
            DistanceMetric::Xor => s.refs[0] ^ 5,
        };
        (s, bits)
    }

    #[test]
    fn equal_distance_prefers_later_expiry() {
        // Rule 3 between distinct instances that tie on distance, under the
        // inline f64 encoding (`INFINITY` = never): later > earlier,
        // never > finite, and the incumbent stays on equal expiry.
        for metric in [DistanceMetric::Absolute, DistanceMetric::Xor] {
            let (mut s, bits) = one_slot_and_tying_bits(metric);
            let mut arena = PseudonymArena::new();
            let early = Pseudonym::forged(1, bits, Some(10.0));
            let late = Pseudonym::forged(2, bits, Some(20.0));
            let late_twin = Pseudonym::forged(3, bits, Some(20.0));
            let never = Pseudonym::forged(4, bits, None);
            let never_twin = Pseudonym::forged(5, bits, None);

            assert!(s.offer(&mut arena, early, SimTime::ZERO));
            assert!(
                s.offer(&mut arena, late, SimTime::ZERO),
                "later finite wins"
            );
            assert!(!s.offer(&mut arena, early, SimTime::ZERO), "earlier loses");
            assert!(
                !s.offer(&mut arena, late_twin, SimTime::ZERO),
                "equal expiry keeps the incumbent"
            );
            assert!(s.contains(late.id()));
            assert!(
                s.offer(&mut arena, never, SimTime::ZERO),
                "never beats finite"
            );
            assert!(
                !s.offer(&mut arena, late, SimTime::ZERO),
                "finite loses to never"
            );
            assert!(
                !s.offer(&mut arena, never_twin, SimTime::ZERO),
                "never keeps the incumbent"
            );
            assert!(s.contains(never.id()));
            assert_eq!((s.additions(), s.removals()), (3, 2));
            assert_eq!(arena.len(), 3, "losers were never interned");
        }
    }

    #[test]
    fn same_instance_reoffered_is_a_no_op() {
        // The slot's occupant ties with itself on distance and on expiry;
        // rule 3's strict comparison keeps it without a second count.
        for expires in [Some(10.0), None] {
            let (mut s, bits) = one_slot_and_tying_bits(DistanceMetric::Absolute);
            let mut arena = PseudonymArena::new();
            let a = Pseudonym::forged(1, bits, expires);
            assert!(s.offer(&mut arena, a, SimTime::ZERO));
            assert!(!s.offer(&mut arena, a, SimTime::ZERO));
            assert_eq!((s.additions(), s.removals()), (1, 0));
            assert_eq!(arena.len(), 1);
        }
    }

    #[test]
    fn maximal_distance_still_fills_a_vacant_slot() {
        // Under Xor, `!reference` is at distance `u128::MAX` — the value the
        // distance column holds for a vacant slot. Rule 1 still applies.
        let (mut s, _) = one_slot_and_tying_bits(DistanceMetric::Xor);
        let mut arena = PseudonymArena::new();
        let farthest = Pseudonym::forged(1, !s.refs[0], Some(10.0));
        assert!(s.offer(&mut arena, farthest, SimTime::ZERO));
        assert!(s.contains(farthest.id()));
        // Occupied at the maximal distance, the slot applies rule 3 again...
        let twin = Pseudonym::forged(2, !s.refs[0], Some(10.0));
        assert!(!s.offer(&mut arena, twin, SimTime::ZERO));
        // ...and once emptied it is vacant again, whatever expiry the
        // previous occupant left behind in the slot's columns.
        assert!(s.evict(farthest.id()));
        assert!(s.offer(&mut arena, twin, SimTime::ZERO));
        assert_eq!(s.empty_slots(), 0);
    }

    /// The min-wise `offer` as it was before the distance column: both
    /// distances computed per slot, and an arena lookup up front so a slot
    /// already holding the instance is recognized by handle. Kept as the
    /// oracle the rewrite is checked against.
    fn offer_reference(
        s: &mut Sampler,
        arena: &mut PseudonymArena,
        p: Pseudonym,
        now: SimTime,
    ) -> bool {
        if !p.is_valid(now) || s.refs.is_empty() {
            return false;
        }
        s.open_slots();
        let mut handle = arena.lookup(p.id());
        let p_expires = p.expires().map_or(f64::INFINITY, |e| e.as_f64());
        let mut changed = false;
        for idx in 0..s.refs.len() {
            let cur = s.slot_entry[idx];
            let replace = if cur == EMPTY {
                true
            } else if Some(cur) == handle {
                false
            } else {
                let r = s.refs[idx];
                let d_new = distance(p.bits(), r, s.metric);
                let d_old = distance(arena.get(cur).bits(), r, s.metric);
                d_new < d_old || (d_new == d_old && p_expires > s.slot_expires[idx])
            };
            if replace {
                let h = *handle.get_or_insert_with(|| arena.intern(p));
                s.set_slot(idx, h, p.id(), p);
                changed = true;
            }
        }
        changed
    }

    /// Which of the cases the windowed scan could get wrong the random
    /// sequences below actually produced.
    #[derive(Debug, Default)]
    struct Coverage {
        window_excluded_a_slot: bool,
        window_covered_all_on_vacancy: bool,
        window_held_two_candidates: bool,
        xor_mask_excluded_a_slot: bool,
        offer_at_maximal_distance: bool,
        tie_inside_a_narrow_window: bool,
        window_empty: bool,
        slot_taken_in_a_narrow_window: bool,
    }

    /// Old and new `offer`, side by side through random operation
    /// sequences over pseudonyms that collide on bits (so distinct
    /// instances tie on distance) and include the maximal distance. The
    /// reference scans every slot and needs no order among the references.
    #[test]
    fn offer_matches_reference_on_random_ops() {
        let mut seen = Coverage::default();
        for seed in 0..400u64 {
            let mut gen = StdRng::seed_from_u64(seed);
            let metric = [DistanceMetric::Absolute, DistanceMetric::Xor][gen.gen_range(0..2usize)];
            let slots = [1usize, 2, 3, 4, 5, 6, 39, 50][gen.gen_range(0..8usize)];
            // A few values many pseudonyms share, so distinct instances
            // tie; under Xor the last reference is the complement of the
            // first, which then sits at distance `u128::MAX`.
            let shared: Vec<u128> = (0..4).map(|_| gen.gen()).collect();
            let mut refs: Vec<u128> = (0..slots).map(|_| gen.gen()).collect();
            if metric == DistanceMetric::Xor {
                *refs.last_mut().unwrap() = !shared[0];
            }
            // Planted in order, so that `old` — whose `offer_reference`
            // never sorts — numbers its slots as `new` will.
            refs.sort_unstable();
            let mut new = Sampler::with_refs(refs, metric, true);
            let mut old = new.clone();
            let pool: Vec<Pseudonym> = (0..64)
                .map(|i| {
                    let expires =
                        [None, Some(4.0), Some(9.0), Some(30.0)][gen.gen_range(0..4usize)];
                    let bits = if gen.gen_bool(0.3) {
                        shared[gen.gen_range(0..shared.len())]
                    } else {
                        gen.gen()
                    };
                    Pseudonym::forged(i + 1, bits, expires)
                })
                .collect();
            let (mut arena_new, mut arena_old) = (PseudonymArena::new(), PseudonymArena::new());
            let mut now = SimTime::ZERO;
            for _ in 0..60 + 6 * slots {
                match gen.gen_range(0..16) {
                    0 => assert_eq!(new.purge_expired(now), old.purge_expired(now)),
                    1 => {
                        let id = pool[gen.gen_range(0..pool.len())].id();
                        assert_eq!(new.evict(id), old.evict(id));
                    }
                    2 => now += gen.gen_range(0.0..1.5),
                    _ => {
                        let p = pool[gen.gen_range(0..pool.len())];
                        if gen.gen_bool(0.2) {
                            // Interned by someone else (the cache, in a
                            // run): the old code then finds a handle.
                            arena_new.intern(p);
                            arena_old.intern(p);
                        }
                        let valid = p.is_valid(now);
                        let narrow = new.max_dist != u128::MAX;
                        let (lo, hi) = new.window(p.bits());
                        let inside = new.refs.iter().filter(|r| (lo..=hi).contains(r)).count();
                        assert!(narrow || inside == slots, "a vacancy opens every slot");
                        seen.window_covered_all_on_vacancy |= !narrow && slots > 1;
                        seen.window_excluded_a_slot |= valid && inside < slots;
                        seen.window_held_two_candidates |= valid && narrow && inside >= 2;
                        seen.window_empty |= valid && inside == 0;
                        seen.xor_mask_excluded_a_slot |=
                            valid && metric == DistanceMetric::Xor && narrow && inside < slots;
                        for idx in 0..slots {
                            let d = distance(p.bits(), old.refs[idx], metric);
                            // A fresh sampler has no slot columns yet: all
                            // of its slots are vacant.
                            match old.slot_entry.get(idx) {
                                None | Some(&EMPTY) => {
                                    seen.offer_at_maximal_distance |= valid && d == u128::MAX;
                                }
                                Some(&h) => {
                                    let held = arena_old.get(h);
                                    seen.tie_inside_a_narrow_window |= valid
                                        && narrow
                                        && held.id() != p.id()
                                        && d == old.slot_dist[idx];
                                }
                            }
                        }
                        let changed = new.offer(&mut arena_new, p, now);
                        assert_eq!(changed, offer_reference(&mut old, &mut arena_old, p, now));
                        seen.slot_taken_in_a_narrow_window |= changed && narrow && inside < slots;
                    }
                }
                assert_eq!(new.slot_entry, old.slot_entry);
                assert_eq!(new.slot_dist, old.slot_dist);
                let max = new.slot_dist.iter().max().copied();
                assert_eq!(new.max_dist, max.unwrap_or(u128::MAX));
                assert_eq!(new.link_ids, old.link_ids);
                assert_eq!(new.link_handles, old.link_handles);
                assert_eq!(new.link_counts, old.link_counts);
                assert_eq!(
                    (new.additions(), new.removals()),
                    (old.additions(), old.removals())
                );
                assert_eq!(arena_new.len(), arena_old.len());
            }
        }
        let all = format!("{seen:?}");
        assert!(!all.contains("false"), "a case was never generated: {all}");
    }

    #[test]
    fn slot_order_is_unobservable() {
        // The same references, sorted by the first `offer` in one sampler
        // and left in drawn order by the all-slot reference scan in the
        // other, fed the same operations: link set, counters, arena and
        // return values agree although the two number their slots
        // differently.
        for seed in 0..50u64 {
            let mut gen = StdRng::seed_from_u64(seed);
            let refs: Vec<u128> = (0..12).map(|_| gen.gen()).collect();
            let mut sorted = Sampler::with_refs(refs, DistanceMetric::Absolute, true);
            let mut drawn = sorted.clone();
            let pool: Vec<Pseudonym> = (0..40)
                .map(|i| Pseudonym::forged(i + 1, gen.gen(), [None, Some(6.0)][i as usize % 2]))
                .collect();
            let (mut arena_a, mut arena_b) = (PseudonymArena::new(), PseudonymArena::new());
            let mut now = SimTime::ZERO;
            for _ in 0..120 {
                let p = pool[gen.gen_range(0..pool.len())];
                match gen.gen_range(0..10) {
                    0 => assert_eq!(sorted.purge_expired(now), drawn.purge_expired(now)),
                    1 => assert_eq!(sorted.evict(p.id()), drawn.evict(p.id())),
                    2 => now += gen.gen_range(0.0..1.0),
                    _ => assert_eq!(
                        sorted.offer(&mut arena_a, p, now),
                        offer_reference(&mut drawn, &mut arena_b, p, now)
                    ),
                }
                let in_order = sorted.refs.windows(2).all(|w| w[0] <= w[1]);
                assert!(in_order || sorted.link_ids.is_empty());
                assert_eq!(sorted.link_ids, drawn.link_ids);
                assert_eq!(sorted.link_handles, drawn.link_handles);
                assert_eq!(sorted.link_counts, drawn.link_counts);
                assert_eq!(
                    (sorted.additions(), sorted.removals()),
                    (drawn.additions(), drawn.removals())
                );
                assert_eq!(arena_a.len(), arena_b.len());
            }
        }
    }

    #[test]
    fn expired_offer_is_ignored() {
        let mut s = sampler(2, 6);
        let mut svc = PseudonymService::new(6);
        let mut arena = PseudonymArena::new();
        let p = svc.mint(0, SimTime::ZERO, Some(5.0));
        assert!(!s.offer(&mut arena, p, SimTime::new(5.0)));
        assert_eq!(s.link_count(), 0);
    }

    #[test]
    fn purge_expired_clears_slots_and_counts_removals() {
        let mut s = sampler(4, 7);
        let mut svc = PseudonymService::new(7);
        let mut arena = PseudonymArena::new();
        let p = svc.mint(0, SimTime::ZERO, Some(5.0));
        s.offer(&mut arena, p, SimTime::ZERO);
        assert_eq!(s.link_count(), 1);
        let removed = s.purge_expired(SimTime::new(6.0));
        assert_eq!(removed, 1, "one distinct pseudonym expired");
        assert_eq!(s.link_count(), 0);
        assert_eq!(s.empty_slots(), 4);
        assert_eq!(s.removals(), 1);
        // Idempotent.
        assert_eq!(s.purge_expired(SimTime::new(7.0)), 0);
    }

    #[test]
    fn purge_expiry_boundary_is_exclusive() {
        let mut s = sampler(2, 12);
        let mut svc = PseudonymService::new(12);
        let mut arena = PseudonymArena::new();
        let p = svc.mint(0, SimTime::ZERO, Some(5.0));
        s.offer(&mut arena, p, SimTime::ZERO);
        // Still valid strictly before the expiry instant...
        assert_eq!(s.purge_expired(SimTime::new(4.999)), 0);
        // ...and gone exactly at it, matching `Pseudonym::is_valid`.
        assert_eq!(s.purge_expired(SimTime::new(5.0)), 1);
    }

    #[test]
    fn an_occupant_due_before_the_watermark_is_purged_on_time() {
        // The watermark sits at 50 after the first purge. Evicting that
        // occupant leaves it there; the next occupant, due at 5, must lower
        // it — under min-wise sampling and under the recency ablation.
        for minwise in [true, false] {
            let mut rng = StdRng::seed_from_u64(13);
            let mut s = Sampler::new(1, DistanceMetric::Absolute, minwise, &mut rng);
            let mut arena = PseudonymArena::new();
            let late = Pseudonym::forged(1, 7, Some(50.0));
            let soon = Pseudonym::forged(2, 7, Some(5.0));
            assert!(s.offer(&mut arena, late, SimTime::ZERO));
            assert_eq!(s.purge_expired(SimTime::new(1.0)), 0);
            assert!(s.evict(late.id()));
            assert!(s.offer(&mut arena, soon, SimTime::new(2.0)));
            assert_eq!(s.purge_expired(SimTime::new(4.0)), 0);
            assert_eq!(s.purge_expired(SimTime::new(5.0)), 1);
            assert_eq!(s.empty_slots(), 1);
        }
    }

    #[test]
    fn purge_matches_a_watermark_free_scan_on_random_ops() {
        // `scan` has its watermark knocked down before every operation, so
        // each of its purges scans every slot.
        for seed in 0..200u64 {
            let mut gen = StdRng::seed_from_u64(seed);
            let slots = [1usize, 2, 5, 12][gen.gen_range(0..4usize)];
            let minwise = gen.gen_bool(0.8);
            let mut gated = Sampler::new(slots, DistanceMetric::Absolute, minwise, &mut gen);
            let mut scan = gated.clone();
            let pool: Vec<Pseudonym> = (0..32)
                .map(|i| {
                    let born = gen.gen_range(0.0..20.0);
                    let lifetime =
                        [None, Some(2.0), Some(5.0), Some(9.0)][gen.gen_range(0..4usize)];
                    Pseudonym::forged(i + 1, gen.gen(), lifetime.map(|l| born + l))
                })
                .collect();
            let mut arena = PseudonymArena::new();
            let mut now = SimTime::ZERO;
            for _ in 0..80 {
                scan.next_expiry = f64::NEG_INFINITY;
                let p = pool[gen.gen_range(0..pool.len())];
                match gen.gen_range(0..6) {
                    0 => assert_eq!(gated.purge_expired(now), scan.purge_expired(now)),
                    1 => assert_eq!(gated.evict(p.id()), scan.evict(p.id())),
                    2 => now += gen.gen_range(0.0..2.0),
                    _ => assert_eq!(
                        gated.offer(&mut arena, p, now),
                        scan.offer(&mut arena, p, now)
                    ),
                }
                assert_eq!(gated.slot_entry, scan.slot_entry);
                assert_eq!(gated.link_ids, scan.link_ids);
                assert_eq!(gated.removals(), scan.removals());
                let occupied = gated.slot_entry.iter().zip(&gated.slot_expires);
                assert!(occupied
                    .filter(|&(&h, _)| h != EMPTY)
                    .all(|(_, &e)| gated.next_expiry <= e));
            }
        }
    }

    #[test]
    fn links_are_distinct_and_sorted() {
        let mut s = sampler(8, 8);
        let mut svc = PseudonymService::new(8);
        let mut arena = PseudonymArena::new();
        for i in 0..3 {
            s.offer(&mut arena, svc.mint(i, SimTime::ZERO, None), SimTime::ZERO);
        }
        let ids: Vec<_> = s.links_iter(&arena).map(|p| p.id()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "links come out sorted by id, deduplicated");
        assert!(ids.len() <= 3);
    }

    #[test]
    fn recency_mode_keeps_latest() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = Sampler::new(2, DistanceMetric::Absolute, false, &mut rng);
        let mut svc = PseudonymService::new(9);
        let mut arena = PseudonymArena::new();
        let ps: Vec<Pseudonym> = (0..5).map(|i| svc.mint(i, SimTime::ZERO, None)).collect();
        for &p in &ps {
            s.offer(&mut arena, p, SimTime::ZERO);
        }
        // Ring of 2 slots: only the last two survive.
        assert!(s.contains(ps[3].id()));
        assert!(s.contains(ps[4].id()));
        assert!(!s.contains(ps[0].id()));
        // Duplicates ignored.
        assert!(!s.offer(&mut arena, ps[4], SimTime::ZERO));
    }

    #[test]
    fn xor_metric_also_samples_minimum() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut s = Sampler::new(3, DistanceMetric::Xor, true, &mut rng);
        let mut svc = PseudonymService::new(10);
        let mut arena = PseudonymArena::new();
        let offered: Vec<Pseudonym> = (0..100).map(|i| svc.mint(i, SimTime::ZERO, None)).collect();
        for &p in &offered {
            s.offer(&mut arena, p, SimTime::ZERO);
        }
        for (idx, &r) in s.refs.iter().enumerate() {
            let kept = slot_entry(&s, &arena, idx).unwrap();
            let min = offered.iter().map(|p| p.bits() ^ r).min().unwrap();
            assert_eq!(kept.bits() ^ r, min);
        }
    }

    #[test]
    fn refcount_tracks_multi_slot_occupancy() {
        // A pseudonym filling all slots then displaced from one still links.
        let mut s = sampler(3, 11);
        let mut svc = PseudonymService::new(11);
        let mut arena = PseudonymArena::new();
        let first = svc.mint(0, SimTime::ZERO, None);
        s.offer(&mut arena, first, SimTime::ZERO);
        assert_eq!(s.link_count(), 1);
        // Offer many more; first may lose some slots but the link set is
        // consistent: every slot entry appears in links().
        for i in 1..50 {
            s.offer(&mut arena, svc.mint(i, SimTime::ZERO, None), SimTime::ZERO);
        }
        let links: Vec<_> = s.links_iter(&arena).collect();
        assert_eq!(links.len(), s.link_count());
        for idx in 0..s.slot_count() {
            let p = slot_entry(&s, &arena, idx).unwrap();
            assert!(links.iter().any(|l| l.id() == p.id()));
        }
        assert_eq!(s.additions() - s.removals(), s.link_count() as u64);
    }
}
