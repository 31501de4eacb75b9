//! Pseudonyms and the (ideal) pseudonym service.
//!
//! A pseudonym `P(n)` is "an address that any other node `m` can use in
//! conjunction with the pseudonym service to build a link to `n` such that
//! `n`'s ID is not disclosed to `m` and vice versa" (Section III-A). The
//! sampling protocol additionally assumes "each pseudonym is a random p-bit
//! sequence".
//!
//! In a deployment the service is realized on top of a mix network (Tor
//! hidden services, I2P eepsites, or an anonymity-fronted storage service —
//! Section III-B). The paper's evaluation assumes an *ideal* service:
//! links are reliable and low-latency whenever both endpoints are online.
//! [`PseudonymService`] here plays exactly that role: it mints pseudonyms
//! and — as simulation-level ground truth — remembers their owners so the
//! simulator can route messages. Protocol logic never inspects the owner;
//! see [`Pseudonym::owner`] for the visibility contract.

use crate::config::DistanceMetric;
use rand::Rng;
use serde::{Deserialize, Serialize};
use veil_sim::rng::{derive_rng, Stream};
use veil_sim::SimTime;

/// Unique identifier of one minted pseudonym instance.
///
/// Renewing a pseudonym produces a new instance with a fresh id and fresh
/// random bits; the old instance stays distinct until it expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PseudonymId(pub u64);

impl std::fmt::Display for PseudonymId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A pseudonym: a random 128-bit address with an expiry time.
///
/// `Pseudonym` is the datum gossiped through the shuffle protocol and
/// compared against sampler reference values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pseudonym {
    id: PseudonymId,
    bits: u128,
    expires: Option<SimTime>,
    owner: u32,
}

impl Pseudonym {
    /// The unique instance id.
    pub fn id(&self) -> PseudonymId {
        self.id
    }

    /// The random p-bit value (p = 128) used for sampler distances.
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// Expiry instant; `None` for non-expiring pseudonyms (`r = ∞`).
    pub fn expires(&self) -> Option<SimTime> {
        self.expires
    }

    /// Whether the pseudonym is still valid at `now`.
    ///
    /// Expiry is exclusive: a pseudonym whose expiry equals `now` is no
    /// longer valid.
    pub fn is_valid(&self, now: SimTime) -> bool {
        self.expires.is_none_or(|e| now < e)
    }

    /// The owning node — **simulation-level ground truth only**.
    ///
    /// A real pseudonym reveals nothing about its owner; the simulator uses
    /// this to model the pseudonym service resolving the address when a
    /// message is sent. Protocol decision logic (caching, sampling, peer
    /// selection) must not read it, and the privacy attack models in
    /// `veil-privacy` treat it as the hidden variable an adversary tries to
    /// infer.
    pub fn owner(&self) -> u32 {
        self.owner
    }

    /// A pseudonym with chosen bits and expiry, which the service's random
    /// bits never produce on demand: distance ties between distinct
    /// instances, a pseudonym at the maximal distance from a reference.
    #[cfg(test)]
    pub(crate) fn forged(id: u64, bits: u128, expires: Option<f64>) -> Self {
        Self {
            id: PseudonymId(id),
            bits,
            expires: expires.map(SimTime::new),
            owner: 0,
        }
    }

    /// Distance between this pseudonym and a reference value under the
    /// given metric. Smaller is better for the min-wise sampler.
    pub fn distance_to(&self, reference: u128, metric: DistanceMetric) -> u128 {
        match metric {
            DistanceMetric::Absolute => self.bits.abs_diff(reference),
            DistanceMetric::Xor => self.bits ^ reference,
        }
    }
}

/// A handle into a [`PseudonymArena`]: the flat, 4-byte representation of
/// one interned pseudonym.
pub type PseudonymHandle = u32;

/// Deduplicating arena of pseudonym instances.
///
/// Hot per-node structures (the cache and the sampler) store 4-byte
/// [`PseudonymHandle`]s instead of 48-byte [`Pseudonym`] values: one
/// canonical copy of each instance lives here, shared by every node whose
/// state references it. Interning is keyed by [`PseudonymId`] — ids are
/// globally unique per instance (an owner plus its mint count), so equal
/// ids always denote byte-identical pseudonyms and deduplication is exact.
///
/// Each shard of the executor owns one arena. An ideal exchange stays
/// inside it and passes handles; a message in flight carries full
/// [`Pseudonym`] values and is interned on receipt, so no synchronization
/// is ever needed. Entries are never removed; expiry is a property of the
/// pseudonym, not of arena residency.
///
/// # Examples
///
/// ```
/// use veil_core::pseudonym::{PseudonymArena, PseudonymService};
/// use veil_sim::SimTime;
///
/// let mut svc = PseudonymService::new(1);
/// let mut arena = PseudonymArena::new();
/// let p = svc.mint(3, SimTime::ZERO, None);
/// let h = arena.intern(p);
/// assert_eq!(arena.intern(p), h, "same id, same handle");
/// assert_eq!(arena.get(h), p);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PseudonymArena {
    pool: Vec<Pseudonym>,
    by_id: std::collections::HashMap<u64, PseudonymHandle>,
}

impl PseudonymArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `p`, returning its stable handle. A pseudonym already
    /// present (same instance id) returns the existing handle.
    pub fn intern(&mut self, p: Pseudonym) -> PseudonymHandle {
        match self.by_id.entry(p.id.0) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let h = *e.get();
                debug_assert_eq!(
                    self.pool[h as usize], p,
                    "id collision with different value"
                );
                h
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let h = PseudonymHandle::try_from(self.pool.len())
                    .expect("arena capacity exceeded (2^32 pseudonyms)");
                self.pool.push(p);
                e.insert(h);
                h
            }
        }
    }

    /// Resolves a handle to its pseudonym.
    ///
    /// # Panics
    ///
    /// Panics if `h` was not produced by this arena.
    pub fn get(&self, h: PseudonymHandle) -> Pseudonym {
        self.pool[h as usize]
    }

    /// Looks up the handle for an instance id, if interned.
    pub fn lookup(&self, id: PseudonymId) -> Option<PseudonymHandle> {
        self.by_id.get(&id.0).copied()
    }

    /// Number of distinct interned pseudonyms.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Approximate heap footprint in bytes (pool plus id index).
    pub fn approx_heap_bytes(&self) -> usize {
        self.pool.capacity() * std::mem::size_of::<Pseudonym>()
            + self.by_id.capacity()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<PseudonymHandle>() + 1)
    }
}

/// Mints pseudonyms with deterministic per-owner randomness.
///
/// Instance ids are keyed by owner: `id = (owner + 1) << 32 | seq`, where
/// `seq` counts the pseudonyms that owner minted before. An id is thus a
/// pure function of the owner's own history — never of how mints interleave
/// across nodes — so any number of service instances (one per shard, one
/// per veil-net process) assign identical ids to identical protocol
/// histories. Bits are derived from `(master_seed ^ id,
/// Stream::Pseudonym(owner))`.
///
/// # Examples
///
/// ```
/// use veil_core::pseudonym::PseudonymService;
/// use veil_sim::SimTime;
///
/// let mut svc = PseudonymService::new(7);
/// let p = svc.mint(3, SimTime::ZERO, Some(90.0));
/// assert_eq!(p.id().0, 4 << 32);
/// assert!(p.is_valid(SimTime::new(89.9)));
/// assert!(!p.is_valid(SimTime::new(90.0)));
/// ```
#[derive(Debug)]
pub struct PseudonymService {
    master_seed: u64,
    minted: u64,
    /// First owner `counts` covers.
    base: u32,
    /// `counts[owner - base]` is how many pseudonyms that owner minted.
    counts: Vec<u64>,
}

impl PseudonymService {
    /// Creates a service deriving all pseudonym bits from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        Self::new_keyed_for_range(master_seed, 0, 0)
    }

    /// Alias of [`PseudonymService::new`] (every service is keyed).
    pub fn new_keyed(master_seed: u64) -> Self {
        Self::new(master_seed)
    }

    /// Service pre-sized for owners `start..start + len` — the form a
    /// shard uses, so its counters are one flat, allocation-free `Vec`
    /// indexed by `owner - start`. Owners above the range still work (the
    /// counter vector grows), and ids are identical to
    /// [`PseudonymService::new`] for every owner.
    ///
    /// # Panics
    ///
    /// Minting later panics if an owner below `start` is used.
    pub fn new_keyed_for_range(master_seed: u64, start: u32, len: usize) -> Self {
        Self {
            master_seed,
            minted: 0,
            base: start,
            counts: vec![0; len],
        }
    }

    /// Mints a fresh pseudonym for `owner` at time `now` with the given
    /// lifetime in shuffle periods (`None` = never expires).
    pub fn mint(&mut self, owner: u32, now: SimTime, lifetime: Option<f64>) -> Pseudonym {
        assert!(
            owner >= self.base,
            "owner {owner} below keyed range base {}",
            self.base
        );
        let idx = (owner - self.base) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        let seq = &mut self.counts[idx];
        let id = PseudonymId(((u64::from(owner) + 1) << 32) | *seq);
        *seq += 1;
        self.minted += 1;
        // Bits are drawn from a stream keyed by the instance id, so the
        // sequence is reproducible and independent across instances.
        let mut rng = derive_rng(self.master_seed ^ id.0, Stream::Pseudonym(owner));
        Pseudonym {
            id,
            bits: rng.gen(),
            expires: lifetime.map(|l| now + l),
            owner,
        }
    }

    /// Total number of pseudonyms minted so far.
    pub fn minted(&self) -> u64 {
        self.minted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_pseudonyms_are_unique() {
        let mut svc = PseudonymService::new(1);
        let a = svc.mint(0, SimTime::ZERO, Some(10.0));
        let b = svc.mint(0, SimTime::ZERO, Some(10.0));
        assert_ne!(a.id(), b.id());
        assert_ne!(a.bits(), b.bits());
        assert_eq!(svc.minted(), 2);
    }

    #[test]
    fn expiry_semantics() {
        let mut svc = PseudonymService::new(2);
        let p = svc.mint(5, SimTime::new(10.0), Some(30.0));
        assert_eq!(p.expires(), Some(SimTime::new(40.0)));
        assert!(p.is_valid(SimTime::new(10.0)));
        assert!(p.is_valid(SimTime::new(39.999)));
        assert!(!p.is_valid(SimTime::new(40.0)));
        assert!(!p.is_valid(SimTime::new(100.0)));
    }

    #[test]
    fn infinite_lifetime_never_expires() {
        let mut svc = PseudonymService::new(3);
        let p = svc.mint(5, SimTime::ZERO, None);
        assert_eq!(p.expires(), None);
        assert!(p.is_valid(SimTime::new(1e9)));
    }

    #[test]
    fn owner_is_recorded() {
        let mut svc = PseudonymService::new(4);
        assert_eq!(svc.mint(17, SimTime::ZERO, None).owner(), 17);
    }

    #[test]
    fn absolute_distance() {
        let mut svc = PseudonymService::new(5);
        let p = svc.mint(0, SimTime::ZERO, None);
        assert_eq!(p.distance_to(p.bits(), DistanceMetric::Absolute), 0);
        assert_eq!(
            p.distance_to(p.bits().wrapping_add(5), DistanceMetric::Absolute),
            5
        );
    }

    #[test]
    fn xor_distance() {
        let mut svc = PseudonymService::new(6);
        let p = svc.mint(0, SimTime::ZERO, None);
        assert_eq!(p.distance_to(p.bits(), DistanceMetric::Xor), 0);
        assert_eq!(
            p.distance_to(p.bits() ^ 0b1010, DistanceMetric::Xor),
            0b1010
        );
    }

    #[test]
    fn same_seed_same_bits() {
        let mut a = PseudonymService::new(9);
        let mut b = PseudonymService::new(9);
        assert_eq!(
            a.mint(1, SimTime::ZERO, None).bits(),
            b.mint(1, SimTime::ZERO, None).bits()
        );
    }

    #[test]
    fn keyed_ids_are_owner_local_and_interleaving_invariant() {
        // Interleaved mints across owners...
        let mut a = PseudonymService::new_keyed(9);
        let a0 = a.mint(0, SimTime::ZERO, None);
        let a7 = a.mint(7, SimTime::ZERO, None);
        let a0b = a.mint(0, SimTime::ZERO, None);
        // ...and the reverse interleaving produce identical instances.
        let mut b = PseudonymService::new_keyed(9);
        let b7 = b.mint(7, SimTime::ZERO, None);
        let b0 = b.mint(0, SimTime::ZERO, None);
        let b0b = b.mint(0, SimTime::ZERO, None);
        assert_eq!((a0.id(), a0.bits()), (b0.id(), b0.bits()));
        assert_eq!((a7.id(), a7.bits()), (b7.id(), b7.bits()));
        assert_eq!((a0b.id(), a0b.bits()), (b0b.id(), b0b.bits()));
        assert_eq!(a0.id(), PseudonymId(1 << 32));
        assert_eq!(a0b.id(), PseudonymId((1 << 32) | 1));
        assert_eq!(a7.id(), PseudonymId(8 << 32));
        assert_eq!(a.minted(), 3);
    }

    #[test]
    fn keyed_range_service_matches_unbounded_keyed() {
        let mut plain = PseudonymService::new_keyed(11);
        let mut ranged = PseudonymService::new_keyed_for_range(11, 100, 8);
        for owner in [100u32, 105, 100, 107, 200] {
            let a = plain.mint(owner, SimTime::ZERO, Some(5.0));
            let b = ranged.mint(owner, SimTime::ZERO, Some(5.0));
            assert_eq!(a, b, "ids and bits are a pure function of (owner, seq)");
        }
        assert_eq!(ranged.minted(), 5);
    }

    #[test]
    #[should_panic(expected = "below keyed range base")]
    fn keyed_range_rejects_owner_below_base() {
        let mut svc = PseudonymService::new_keyed_for_range(11, 100, 8);
        svc.mint(99, SimTime::ZERO, None);
    }

    #[test]
    fn arena_interning_deduplicates_by_id() {
        let mut svc = PseudonymService::new(12);
        let mut arena = PseudonymArena::new();
        assert!(arena.is_empty());
        let a = svc.mint(0, SimTime::ZERO, Some(3.0));
        let b = svc.mint(1, SimTime::ZERO, None);
        let ha = arena.intern(a);
        let hb = arena.intern(b);
        assert_ne!(ha, hb);
        assert_eq!(arena.intern(a), ha);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(ha), a);
        assert_eq!(arena.get(hb), b);
        assert_eq!(arena.lookup(a.id()), Some(ha));
        assert_eq!(arena.lookup(PseudonymId(999)), None);
        assert!(arena.approx_heap_bytes() >= 2 * std::mem::size_of::<Pseudonym>());
    }

    #[test]
    fn bits_spread_over_range() {
        // 200 pseudonyms should not cluster in one quarter of the range.
        let mut svc = PseudonymService::new(10);
        let mut quarters = [0u32; 4];
        for i in 0..200 {
            let p = svc.mint(i, SimTime::ZERO, None);
            quarters[(p.bits() >> 126) as usize] += 1;
        }
        for &q in &quarters {
            assert!(q > 20, "quarter counts {quarters:?}");
        }
    }
}
