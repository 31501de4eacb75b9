//! The shuffle exchange (Section III-D1).
//!
//! Periodically each node selects one of its overlay links uniformly at
//! random and runs a shuffle with the peer: both sides send an encrypted
//! set of up to ℓ pseudonyms — their own plus up to ℓ−1 from their cache.
//! Received pseudonyms enter the cache (Cyclon replacement) and *all* of
//! them — cached or not — are offered to the min-wise sampler.
//!
//! The functions here are pure protocol logic over [`Node`] state; the
//! event-driven orchestration (timers, churn, delivery) lives in
//! [`crate::simulation`].
//!
//! Two exchanges are built from the offer primitives: [`execute_shuffle`],
//! the paper's synchronous exchange over an ideal zero-latency link, and
//! the **exchange core** ([`Exchanges`], [`respond`]) — the asynchronous
//! request/response exchange over a link that delays and may lose
//! messages. The core is sans-IO: it owns the initiator's pending state,
//! the id and backoff formulas and the four decisions (begin, respond,
//! response, timeout), and reports each as a plain value; its drivers (the
//! windowed simulator's shards, veil-net's socket runtime) only decide
//! message fates, schedule timers and record what happened.
//!
//! Each primitive has one implementation over arena handles. An ideal
//! exchange never leaves its arena, so [`execute_shuffle`] works in
//! handles from end to end: the sender interns its own pseudonym once, when
//! it builds its offer (the cache picks already are handles); the receiver
//! filters, absorbs and samples those handles, and interns nothing. Every
//! buffer it needs lives in a [`ShuffleScratch`] its driver owns and
//! reuses, so it allocates nothing. The exchange core's messages carry
//! [`Pseudonym`] values (they may cross a shard or a wire), through
//! [`build_offer`] and [`receive_offer`], the value forms: a receiver
//! interns what it received, then runs the handle form.

use crate::cache::PosTable;
use crate::node::{LinkTarget, Node};
use crate::pseudonym::{Pseudonym, PseudonymArena, PseudonymHandle, PseudonymId};
use rand::Rng;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use veil_sim::SimTime;

/// The pseudonym set one side contributes to a shuffle.
#[derive(Debug, Clone)]
pub struct Offer {
    /// Pseudonyms sent over the link (own pseudonym first, then cache
    /// picks), at most ℓ entries.
    pub entries: Vec<Pseudonym>,
    /// Arena handles of the cache entries included, valid in the arena the
    /// offer was built from — this side's Cyclon eviction candidates.
    pub sent_from_cache: Vec<PseudonymHandle>,
}

/// The buffers of [`execute_shuffle`], owned by its driver and reused
/// across exchanges so that an exchange allocates nothing.
#[derive(Debug, Default)]
pub struct ShuffleScratch {
    /// The initiator's offer as handles: its own pseudonym (if it leads
    /// with one), then its cache picks — the just-sent list.
    request: Vec<PseudonymHandle>,
    /// The responder's offer, laid out the same way.
    response: Vec<PseudonymHandle>,
    /// `Cache::select_offer_into`'s permutation.
    perm: Vec<u32>,
    /// The received handles a receiver acts on.
    incoming: Vec<PseudonymHandle>,
    /// `Cache::absorb_handles`'s position table.
    table: PosTable,
}

/// The own pseudonym a node's offer leads with, if any, and how many cache
/// entries may follow it.
///
/// Expired cache entries are purged first so they are never gossiped. A
/// contribution-throttled node ([`Node::throttle_contribution`]) withholds
/// its own pseudonym and fills the whole budget from its cache instead.
fn offer_head(node: &mut Node, shuffle_length: usize, now: SimTime) -> (Option<Pseudonym>, usize) {
    node.cache.purge_expired(now);
    let own = if node.contribution_throttled(now) {
        None
    } else {
        node.own_pseudonym(now)
    };
    let budget = shuffle_length.saturating_sub(usize::from(own.is_some()));
    (own, budget)
}

/// Builds a node's offer: its own pseudonym (when valid) plus up to
/// `shuffle_length − 1` random cache entries. The value form of the offer
/// [`execute_shuffle`] builds in handles.
pub fn build_offer<R: Rng + ?Sized>(
    node: &mut Node,
    arena: &PseudonymArena,
    shuffle_length: usize,
    now: SimTime,
    rng: &mut R,
) -> Offer {
    let (own, budget) = offer_head(node, shuffle_length, now);
    let sent_from_cache = node.cache.select_offer(arena, budget, rng);
    let picks = sent_from_cache.iter().map(|&h| arena.get(h));
    let entries = own.into_iter().chain(picks).collect();
    Offer {
        entries,
        sent_from_cache,
    }
}

/// [`build_offer`] into `offer` as handles, interning the own pseudonym;
/// returns how many entries lead the cache picks (0 or 1).
fn build_offer_handles<R: Rng + ?Sized>(
    node: &mut Node,
    arena: &mut PseudonymArena,
    shuffle_length: usize,
    now: SimTime,
    rng: &mut R,
    perm: &mut Vec<u32>,
    offer: &mut Vec<PseudonymHandle>,
) -> usize {
    let (own, budget) = offer_head(node, shuffle_length, now);
    offer.clear();
    offer.extend(own.map(|p| arena.intern(p)));
    node.cache.select_offer_into(budget, rng, perm, offer);
    usize::from(own.is_some())
}

/// Applies a received offer to a node: absorbs the entries into the cache
/// (evicting just-sent entries first) and offers every received pseudonym —
/// whether cached or not — to the sampler.
///
/// Returns the number of pseudonyms that changed the node's sampler.
///
/// The value form of the ideal exchange's receive step. Only the admitted
/// pseudonyms are interned, in received order; the rest would change
/// neither the cache nor the sampler.
pub fn receive_offer<R: Rng + ?Sized>(
    node: &mut Node,
    arena: &mut PseudonymArena,
    received: &[Pseudonym],
    just_sent: &[PseudonymHandle],
    now: SimTime,
    rng: &mut R,
) -> usize {
    let admit = admission(node, now);
    let incoming: Vec<PseudonymHandle> = received
        .iter()
        .filter(|&&p| admit(p))
        .map(|&p| arena.intern(p))
        .collect();
    let table = &mut PosTable::default();
    receive_handles(node, arena, &incoming, just_sent, now, rng, table)
}

/// Which received pseudonyms a node acts on at `now`: the valid ones other
/// than its current own pseudonym.
fn admission(node: &Node, now: SimTime) -> impl Fn(Pseudonym) -> bool {
    let own = node.own_pseudonym(now).map(|p| p.id());
    move |p| Some(p.id()) != own && p.is_valid(now)
}

/// [`receive_offer`] of the admitted entries of an offer, as handles of
/// `arena`, with `table` as the cache's position table.
fn receive_handles<R: Rng + ?Sized>(
    node: &mut Node,
    arena: &PseudonymArena,
    incoming: &[PseudonymHandle],
    just_sent: &[PseudonymHandle],
    now: SimTime,
    rng: &mut R,
    table: &mut PosTable,
) -> usize {
    node.cache
        .absorb_handles(arena, incoming, just_sent, now, rng, table);
    node.sampler.purge_expired(now);
    let mut sampled = 0;
    for &h in incoming {
        // A node recognizes every pseudonym it minted itself — including
        // previous, still-valid instances — and never self-links. This is
        // legitimate local knowledge, not an identity leak.
        if arena.get(h).owner() == node.id {
            continue;
        }
        if node.sampler.offer_handle(arena, h, now) {
            sampled += 1;
        }
    }
    sampled
}

/// Runs one complete shuffle between an initiator and a responder.
///
/// Models the paper's exchange over an ideal privacy-preserving link: the
/// initiator's offer is delivered, the responder builds and returns its own
/// offer, and both sides apply what they received. The caller must have
/// verified that both nodes are online. Both nodes must live in the same
/// shard (they share `arena`), which is why the executor gives the
/// zero-latency link one shard. The offers stay handles of `arena`
/// throughout, and every buffer is `scratch`'s.
pub fn execute_shuffle<R: Rng + ?Sized>(
    initiator: &mut Node,
    responder: &mut Node,
    arena: &mut PseudonymArena,
    shuffle_length: usize,
    now: SimTime,
    rng: &mut R,
    scratch: &mut ShuffleScratch,
) {
    let ShuffleScratch {
        request,
        response,
        perm,
        incoming,
        table,
    } = scratch;
    let ell = shuffle_length;
    let request_own = build_offer_handles(initiator, arena, ell, now, rng, perm, request);
    let response_own = build_offer_handles(responder, arena, ell, now, rng, perm, response);
    for (node, offer, sent) in [
        (&mut *responder, &request[..], &response[response_own..]),
        (&mut *initiator, &response[..], &request[request_own..]),
    ] {
        let admit = admission(node, now);
        incoming.clear();
        incoming.extend(offer.iter().copied().filter(|&h| admit(arena.get(h))));
        receive_handles(node, arena, incoming, sent, now, rng, table);
    }
    initiator.stats.requests_sent += 1;
    responder.stats.responses_sent += 1;
}

/// The id of the `seq`-th exchange `initiator` begins: pure in the node's
/// own history, so every shard layout, veil-net process and trace
/// reconstruction (`veil_obs::xtrace`) agrees on it.
pub fn exchange_id(initiator: u32, seq: u64) -> u64 {
    ((u64::from(initiator) + 1) << 32) | seq
}

/// The node that began `exchange` (the inverse of [`exchange_id`]).
pub fn exchange_initiator(exchange: u64) -> u32 {
    ((exchange >> 32) as u32).wrapping_sub(1)
}

/// How long transmission `attempt` (zero-based) waits for its response:
/// the timeout doubles per retransmission, up to `2^16` times the base.
pub fn retry_backoff(shuffle_timeout: f64, attempt: u32) -> f64 {
    shuffle_timeout * f64::from(1u32 << attempt.min(16))
}

/// One transmission of an exchange's request, for the driver to submit to
/// its link layer and guard with a [`retry_backoff`] timer.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The exchange this request belongs to.
    pub exchange: u64,
    /// Zero-based transmission attempt; both ends key the link layer's
    /// per-message randomness on it.
    pub attempt: u32,
    /// Destination node (the pseudonym service's resolution of the link).
    pub dest: u32,
    /// Whether the exchange runs over a trusted link.
    pub trusted_link: bool,
    /// The initiator's offer, identical on every retransmission.
    pub offer: Vec<Pseudonym>,
}

/// Initiator-side state of an in-flight exchange, kept until the response
/// arrives or the retry budget runs out.
///
/// It holds the offer as handles, not as a copy: a retransmission is
/// rebuilt as `own` followed by the arena's copy of each sent handle. The
/// arena is append-only, so that is the first transmission's offer even
/// after the cache evicted those entries or the node renewed its own
/// pseudonym.
#[derive(Debug)]
struct PendingExchange {
    exchange: u64,
    /// The current transmission attempt.
    attempt: u32,
    dest: u32,
    trusted_link: bool,
    /// The pseudonym behind the chosen link, evicted if the exchange
    /// fails; `None` for trusted links (never evicted).
    target_pseudonym: Option<PseudonymId>,
    /// The own pseudonym the offer led with, if any.
    own: Option<Pseudonym>,
    /// The cache entries the offer carried after `own`, in order.
    sent_from_cache: Vec<PseudonymHandle>,
}

impl PendingExchange {
    /// The transmission numbered `self.attempt`, its offer rebuilt from
    /// `arena` (the arena the offer was built from).
    fn request(&self, arena: &PseudonymArena) -> Request {
        let picks = self.sent_from_cache.iter().map(|&h| arena.get(h));
        Request {
            exchange: self.exchange,
            attempt: self.attempt,
            dest: self.dest,
            trusted_link: self.trusted_link,
            offer: self.own.into_iter().chain(picks).collect(),
        }
    }
}

/// What a response did to the exchange it answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseOutcome {
    /// The exchange already completed, failed or was abandoned (a
    /// duplicate answer to a retransmitted request); nothing was absorbed.
    Stale,
    /// The response was absorbed and the exchange is resolved.
    Completed,
}

/// What the timeout of one transmission decided.
#[derive(Debug, Clone, PartialEq)]
pub enum TimeoutOutcome {
    /// The exchange is already resolved; nobody is waiting.
    Stale,
    /// Within budget: retransmit. `request.attempt` is the new attempt
    /// (the one that timed out was `request.attempt − 1`).
    Retry {
        /// The retransmission to submit.
        request: Request,
    },
    /// Budget exhausted: the exchange is abandoned.
    Failed {
        /// The attempt that timed out last.
        attempt: u32,
        /// The unresponsive pseudonym, already removed from the node's
        /// cache and sampler so the sampler can replace it; `None` for a
        /// trusted link (those belong to the social graph).
        evict: Option<PseudonymId>,
    },
}

/// The in-flight exchanges of one driver's initiators, keyed by exchange
/// id. Only ever accessed by key, so the map's iteration order can never
/// leak into results. The keys are the driver's own exchange ids, hashed
/// with fixed keys, so the table's growth — and the work a run does — is
/// the same on every run.
#[derive(Debug, Default)]
pub struct Exchanges {
    pending: HashMap<u64, PendingExchange, BuildHasherDefault<DefaultHasher>>,
}

impl Exchanges {
    /// Approximate heap footprint in bytes: the table plus what each
    /// pending exchange owns (its just-sent handles).
    pub fn approx_heap_bytes(&self) -> usize {
        let owned: usize = self
            .pending
            .values()
            .map(|p| p.sent_from_cache.capacity() * std::mem::size_of::<PseudonymHandle>())
            .sum();
        self.pending.capacity() * std::mem::size_of::<(u64, PendingExchange)>() + owned
    }

    /// Begins an exchange over `target` (a link the driver picked from
    /// `node`): builds the offer, assigns the node's next exchange id and
    /// registers the pending state. Returns the first transmission.
    pub fn begin<R: Rng + ?Sized>(
        &mut self,
        node: &mut Node,
        arena: &PseudonymArena,
        target: LinkTarget,
        shuffle_length: usize,
        now: SimTime,
        rng: &mut R,
    ) -> Request {
        let offer = build_offer(node, arena, shuffle_length, now, rng);
        let request = Request {
            exchange: exchange_id(node.id, node.exchange_seq),
            attempt: 0,
            dest: target.resolve(),
            trusted_link: target.is_trusted(),
            offer: offer.entries,
        };
        node.exchange_seq += 1;
        // The offer leads with the own pseudonym exactly when it carries
        // one more entry than the cache picks.
        let own = (request.offer.len() > offer.sent_from_cache.len()).then(|| request.offer[0]);
        let pending = PendingExchange {
            exchange: request.exchange,
            attempt: 0,
            dest: request.dest,
            trusted_link: request.trusted_link,
            target_pseudonym: match target {
                LinkTarget::Pseudonym(p) => Some(p.id()),
                LinkTarget::Trusted(_) => None,
            },
            own,
            sent_from_cache: offer.sent_from_cache,
        };
        self.pending.insert(request.exchange, pending);
        request
    }

    /// A response to `exchange` reached its initiator `node`: absorbs it
    /// and resolves the exchange, unless it is stale.
    pub fn on_response<R: Rng + ?Sized>(
        &mut self,
        exchange: u64,
        node: &mut Node,
        arena: &mut PseudonymArena,
        response: &[Pseudonym],
        now: SimTime,
        rng: &mut R,
    ) -> ResponseOutcome {
        let Some(p) = self.pending.remove(&exchange) else {
            return ResponseOutcome::Stale;
        };
        receive_offer(node, arena, response, &p.sent_from_cache, now, rng);
        ResponseOutcome::Completed
    }

    /// The timer guarding the current transmission of `exchange` fired at
    /// its initiator `node`: retry within `retry_budget`, then give up and
    /// apply Cyclon-style recovery. `arena` is the node's domain arena, the
    /// one [`Exchanges::begin`] built the offer from.
    pub fn on_timeout(
        &mut self,
        exchange: u64,
        node: &mut Node,
        arena: &PseudonymArena,
        retry_budget: u32,
    ) -> TimeoutOutcome {
        let Entry::Occupied(mut entry) = self.pending.entry(exchange) else {
            return TimeoutOutcome::Stale;
        };
        let pending = entry.get_mut();
        let attempt = pending.attempt;
        if attempt < retry_budget {
            pending.attempt += 1;
            return TimeoutOutcome::Retry {
                request: pending.request(arena),
            };
        }
        let evict = entry.remove().target_pseudonym;
        if let Some(id) = evict {
            node.cache.remove(arena, id);
            node.sampler.evict(id);
        }
        TimeoutOutcome::Failed { attempt, evict }
    }

    /// Forgets `exchange` without resolving it: its initiator went away
    /// and nobody is waiting any more. A no-op when already resolved.
    pub fn abandon(&mut self, exchange: u64) {
        self.pending.remove(&exchange);
    }
}

/// The responder's side of an exchange: builds the response offer *before*
/// absorbing the request (Cyclon semantics — what was just received is
/// never echoed straight back) and returns the entries to send.
pub fn respond<R: Rng + ?Sized>(
    node: &mut Node,
    arena: &mut PseudonymArena,
    request: &[Pseudonym],
    shuffle_length: usize,
    now: SimTime,
    rng: &mut R,
) -> Vec<Pseudonym> {
    let response = build_offer(node, arena, shuffle_length, now, rng);
    receive_offer(node, arena, request, &response.sent_from_cache, now, rng);
    response.entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OverlayConfig;
    use crate::pseudonym::PseudonymService;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg() -> OverlayConfig {
        OverlayConfig {
            cache_size: 10,
            shuffle_length: 4,
            target_links: 8,
            ..OverlayConfig::default()
        }
    }

    fn node_with_pseudonym(
        id: u32,
        cfg: &OverlayConfig,
        svc: &mut PseudonymService,
        rng: &mut StdRng,
    ) -> Node {
        let mut n = Node::new(id, vec![], cfg, rng);
        n.renew_pseudonym(svc, SimTime::ZERO, cfg.pseudonym_lifetime);
        n
    }

    #[test]
    fn offer_contains_own_pseudonym_first() {
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(1);
        let arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut node = node_with_pseudonym(0, &cfg, &mut svc, &mut rng);
        let own = node.own_pseudonym(SimTime::ZERO).unwrap();
        let offer = build_offer(
            &mut node,
            &arena,
            cfg.shuffle_length,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(offer.entries[0], own);
        assert!(offer.sent_from_cache.is_empty(), "cache was empty");
    }

    #[test]
    fn offer_respects_length_limit() {
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(2);
        let mut arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut node = node_with_pseudonym(0, &cfg, &mut svc, &mut rng);
        for i in 1..=9 {
            let p = svc.mint(i, SimTime::ZERO, None);
            node.cache.insert(&mut arena, p, SimTime::ZERO);
        }
        let offer = build_offer(
            &mut node,
            &arena,
            cfg.shuffle_length,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(offer.entries.len(), 4, "own + 3 cache entries");
        assert_eq!(offer.sent_from_cache.len(), 3);
    }

    #[test]
    fn offer_without_own_pseudonym_uses_full_budget() {
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(3);
        let mut arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut node = Node::new(0, vec![], &cfg, &mut rng);
        for i in 1..=9 {
            node.cache
                .insert(&mut arena, svc.mint(i, SimTime::ZERO, None), SimTime::ZERO);
        }
        let offer = build_offer(
            &mut node,
            &arena,
            cfg.shuffle_length,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(offer.entries.len(), 4);
        assert_eq!(offer.sent_from_cache.len(), 4);
    }

    #[test]
    fn throttled_node_withholds_own_pseudonym() {
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(9);
        let mut arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(9);
        let mut node = node_with_pseudonym(0, &cfg, &mut svc, &mut rng);
        let own = node.own_pseudonym(SimTime::ZERO).unwrap();
        for i in 1..=9 {
            node.cache
                .insert(&mut arena, svc.mint(i, SimTime::ZERO, None), SimTime::ZERO);
        }
        node.throttle_contribution(SimTime::new(5.0));
        let offer = build_offer(
            &mut node,
            &arena,
            cfg.shuffle_length,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(!offer.entries.contains(&own), "own pseudonym withheld");
        assert_eq!(offer.entries.len(), 4, "full budget from the cache");
        // The throttle expires: the own pseudonym leads the offer again.
        let offer = build_offer(
            &mut node,
            &arena,
            cfg.shuffle_length,
            SimTime::new(5.0),
            &mut rng,
        );
        assert_eq!(offer.entries[0], own);
    }

    #[test]
    fn expired_entries_never_gossiped() {
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(4);
        let mut arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut node = Node::new(0, vec![], &cfg, &mut rng);
        node.cache.insert(
            &mut arena,
            svc.mint(1, SimTime::ZERO, Some(5.0)),
            SimTime::ZERO,
        );
        let offer = build_offer(
            &mut node,
            &arena,
            cfg.shuffle_length,
            SimTime::new(6.0),
            &mut rng,
        );
        assert!(offer.entries.is_empty());
    }

    #[test]
    fn receive_populates_cache_and_sampler() {
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(5);
        let mut arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut node = node_with_pseudonym(0, &cfg, &mut svc, &mut rng);
        let incoming: Vec<Pseudonym> = (1..=3).map(|i| svc.mint(i, SimTime::ZERO, None)).collect();
        let changed = receive_offer(
            &mut node,
            &mut arena,
            &incoming,
            &[],
            SimTime::ZERO,
            &mut rng,
        );
        assert!(changed > 0);
        assert_eq!(node.cache.len(), 3);
        // Each slot keeps the minimum-distance pseudonym; a received
        // pseudonym that wins no slot does not become a link.
        let links = node.sampler.link_count();
        assert!((1..=3).contains(&links), "link count {links}");
    }

    #[test]
    fn receive_ignores_own_pseudonym() {
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(6);
        let mut arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(6);
        let mut node = node_with_pseudonym(0, &cfg, &mut svc, &mut rng);
        let own = node.own_pseudonym(SimTime::ZERO).unwrap();
        receive_offer(&mut node, &mut arena, &[own], &[], SimTime::ZERO, &mut rng);
        assert!(node.cache.is_empty());
        assert_eq!(node.sampler.link_count(), 0);
    }

    #[test]
    fn shuffle_exchanges_pseudonyms_both_ways() {
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(7);
        let mut arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = node_with_pseudonym(0, &cfg, &mut svc, &mut rng);
        let mut b = node_with_pseudonym(1, &cfg, &mut svc, &mut rng);
        let pa = a.own_pseudonym(SimTime::ZERO).unwrap();
        let pb = b.own_pseudonym(SimTime::ZERO).unwrap();
        execute_shuffle(
            &mut a,
            &mut b,
            &mut arena,
            cfg.shuffle_length,
            SimTime::ZERO,
            &mut rng,
            &mut ShuffleScratch::default(),
        );
        assert!(a.cache.contains(&arena, pb.id()), "a learned b's pseudonym");
        assert!(b.cache.contains(&arena, pa.id()), "b learned a's pseudonym");
        assert!(a.sampler.contains(pb.id()));
        assert!(b.sampler.contains(pa.id()));
        assert_eq!(a.stats.requests_sent, 1);
        assert_eq!(b.stats.responses_sent, 1);
        assert_eq!(a.stats.responses_sent, 0);
    }

    /// What a run of shuffles leaves behind that anything can observe:
    /// cache ids in entry order, sampler links, counters, the RNG's next
    /// draw and the set of interned ids.
    type Observed = (
        Vec<Vec<PseudonymId>>,
        Vec<Vec<PseudonymId>>,
        Vec<u64>,
        u64,
        Vec<PseudonymId>,
    );

    /// Six shuffles between two nodes whose caches hold third parties,
    /// some of them expiring, each other's current and earlier own
    /// pseudonyms, with renewals and a throttle along the way — through
    /// `execute_shuffle` (handles, one scratch) or through the value forms
    /// in the order it calls them.
    fn shuffle_run(seed: u64, handles: bool) -> Observed {
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(seed);
        let mut arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = node_with_pseudonym(0, &cfg, &mut svc, &mut rng);
        let mut b = node_with_pseudonym(1, &cfg, &mut svc, &mut rng);
        for owner in 2..2 + rng.gen_range(0..12usize) as u32 {
            let lifetime = [None, Some(3.0), Some(7.0)][rng.gen_range(0..3usize)];
            let p = svc.mint(owner, SimTime::ZERO, lifetime);
            let node = if rng.gen_bool(0.5) { &mut a } else { &mut b };
            node.cache.insert(&mut arena, p, SimTime::ZERO);
        }
        let b_own = b.own_pseudonym(SimTime::ZERO).unwrap();
        a.cache.insert(&mut arena, b_own, SimTime::ZERO);
        if rng.gen_bool(0.3) {
            a.throttle_contribution(SimTime::new(4.0));
        }
        let mut scratch = ShuffleScratch::default();
        for round in 0..6 {
            let now = SimTime::new(f64::from(round) * 1.5);
            if round == 2 {
                // b's first instance, still valid and cached at a, is no
                // longer its own: b caches it but never samples it.
                b.renew_pseudonym(&mut svc, now, cfg.pseudonym_lifetime);
            }
            let ell = cfg.shuffle_length;
            if handles {
                execute_shuffle(&mut a, &mut b, &mut arena, ell, now, &mut rng, &mut scratch);
            } else {
                let request = build_offer(&mut a, &arena, ell, now, &mut rng);
                let response = build_offer(&mut b, &arena, ell, now, &mut rng);
                let sent = &response.sent_from_cache;
                receive_offer(&mut b, &mut arena, &request.entries, sent, now, &mut rng);
                let sent = &request.sent_from_cache;
                receive_offer(&mut a, &mut arena, &response.entries, sent, now, &mut rng);
            }
        }
        let nodes = [&a, &b];
        let mut interned: Vec<_> = (0..arena.len() as u32).map(|h| arena.get(h).id()).collect();
        interned.sort_unstable();
        (
            nodes
                .map(|n| n.cache.iter(&arena).map(|p| p.id()).collect())
                .to_vec(),
            nodes
                .map(|n| n.sampler.links_iter(&arena).map(|p| p.id()).collect())
                .to_vec(),
            nodes
                .iter()
                .flat_map(|n| [n.sampler.additions(), n.sampler.removals()])
                .collect(),
            rng.gen(),
            interned,
        )
    }

    #[test]
    fn the_ideal_exchange_equals_its_value_forms() {
        for seed in 0..100 {
            assert_eq!(
                shuffle_run(seed, true),
                shuffle_run(seed, false),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn repeated_shuffles_spread_third_party_pseudonyms() {
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(8);
        let mut arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(8);
        let mut a = node_with_pseudonym(0, &cfg, &mut svc, &mut rng);
        let mut b = node_with_pseudonym(1, &cfg, &mut svc, &mut rng);
        // a knows a third party's pseudonym.
        let third = svc.mint(2, SimTime::ZERO, None);
        a.cache.insert(&mut arena, third, SimTime::ZERO);
        let mut learned = false;
        let mut scratch = ShuffleScratch::default();
        for _ in 0..20 {
            execute_shuffle(
                &mut a,
                &mut b,
                &mut arena,
                cfg.shuffle_length,
                SimTime::ZERO,
                &mut rng,
                &mut scratch,
            );
            if b.cache.contains(&arena, third.id()) {
                learned = true;
                break;
            }
        }
        assert!(learned, "third-party pseudonym should eventually spread");
    }

    /// A node with one pseudonym link (to node 1) and, optionally, one
    /// trusted link (to node 9); returns the pseudonym link's target.
    fn initiator(trusted: Vec<u32>, seed: u64) -> (Node, PseudonymArena, LinkTarget, StdRng) {
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(seed);
        let mut arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut node = Node::new(0, trusted, &cfg, &mut rng);
        node.renew_pseudonym(&mut svc, SimTime::ZERO, cfg.pseudonym_lifetime);
        let peer = svc.mint(1, SimTime::ZERO, None);
        node.cache.insert(&mut arena, peer, SimTime::ZERO);
        assert!(node.sampler.offer(&mut arena, peer, SimTime::ZERO));
        (node, arena, LinkTarget::Pseudonym(peer), rng)
    }

    #[test]
    fn timeout_retries_through_the_budget_then_fails_and_evicts() {
        // (trusted link?, retry budget)
        for (trusted, budget) in [(false, 0), (false, 2), (true, 2), (true, 3)] {
            let (mut node, arena, pseudonym_link, mut rng) = initiator(vec![9], 11);
            let target = if trusted {
                LinkTarget::Trusted(9)
            } else {
                pseudonym_link
            };
            let mut table = Exchanges::default();
            let first = table.begin(&mut node, &arena, target, 4, SimTime::ZERO, &mut rng);
            assert_eq!((first.attempt, first.dest), (0, target.resolve()));
            assert_eq!(first.trusted_link, trusted);
            for attempt in 1..=budget {
                let expect = Request {
                    attempt,
                    ..first.clone()
                };
                assert_eq!(
                    table.on_timeout(first.exchange, &mut node, &arena, budget),
                    TimeoutOutcome::Retry { request: expect },
                    "trusted {trusted}, budget {budget}"
                );
            }
            let evict = match pseudonym_link {
                LinkTarget::Pseudonym(p) if !trusted => Some(p.id()),
                _ => None,
            };
            assert_eq!(
                table.on_timeout(first.exchange, &mut node, &arena, budget),
                TimeoutOutcome::Failed {
                    attempt: budget,
                    evict
                }
            );
            // Only a failed pseudonym link costs the node that link.
            assert_eq!(node.sampler.link_count(), usize::from(trusted));
            assert_eq!(node.cache.len(), usize::from(trusted));
            assert_eq!(
                table.on_timeout(first.exchange, &mut node, &arena, budget),
                TimeoutOutcome::Stale
            );
        }
    }

    #[test]
    fn response_completes_once_and_a_duplicate_is_stale() {
        let (mut node, mut arena, target, mut rng) = initiator(vec![], 12);
        // Keyed ids cannot collide with the counter ids minted above.
        let mut svc = PseudonymService::new(99);
        let fresh = [svc.mint(5, SimTime::ZERO, None)];
        let mut table = Exchanges::default();
        let req = table.begin(&mut node, &arena, target, 4, SimTime::ZERO, &mut rng);
        let mut respond = |table: &mut Exchanges,
                           node: &mut Node,
                           arena: &mut PseudonymArena,
                           offer: &[Pseudonym]| {
            table.on_response(req.exchange, node, arena, offer, SimTime::ZERO, &mut rng)
        };
        assert_eq!(
            respond(&mut table, &mut node, &mut arena, &fresh),
            ResponseOutcome::Completed
        );
        assert!(node.cache.contains(&arena, fresh[0].id()));
        // The answer to a retransmission arrives after the exchange is
        // resolved: nothing of it is absorbed.
        let late = [svc.mint(6, SimTime::ZERO, None)];
        assert_eq!(
            respond(&mut table, &mut node, &mut arena, &late),
            ResponseOutcome::Stale
        );
        assert!(!node.cache.contains(&arena, late[0].id()));
        assert!(!node.sampler.contains(late[0].id()));
        // So is the answer to an exchange its initiator abandoned.
        let req = table.begin(&mut node, &arena, target, 4, SimTime::ZERO, &mut rng);
        table.abandon(req.exchange);
        let outcome = table.on_response(
            req.exchange,
            &mut node,
            &mut arena,
            &late,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(outcome, ResponseOutcome::Stale);
    }

    #[test]
    fn a_retransmission_is_verbatim() {
        // Between the first transmission and its retries the node's state
        // moves on: the response to another exchange evicts every cache
        // entry this offer carried, and the node renews its own pseudonym.
        // Neither may leak into a retransmission.
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(17);
        let mut arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(17);
        let mut node = node_with_pseudonym(0, &cfg, &mut svc, &mut rng);
        for owner in 1..=cfg.cache_size as u32 {
            let p = svc.mint(owner, SimTime::ZERO, None);
            node.cache.insert(&mut arena, p, SimTime::ZERO);
        }
        let target = LinkTarget::Trusted(9);
        let mut table = Exchanges::default();
        let first = table.begin(&mut node, &arena, target, 4, SimTime::ZERO, &mut rng);
        let own = node.own_pseudonym(SimTime::ZERO).unwrap();
        assert_eq!(first.offer.len(), 4, "own + 3 cache entries");
        assert_eq!(first.offer[0], own);
        let sent = table.pending[&first.exchange].sent_from_cache.clone();
        let fresh: Vec<Pseudonym> = (11..=13)
            .map(|o| svc.mint(o, SimTime::ZERO, None))
            .collect();
        receive_offer(
            &mut node,
            &mut arena,
            &fresh,
            &sent,
            SimTime::ZERO,
            &mut rng,
        );
        for p in &first.offer[1..] {
            assert!(!node.cache.contains(&arena, p.id()), "{} evicted", p.id());
        }
        let renewed = node.renew_pseudonym(&mut svc, SimTime::ZERO, cfg.pseudonym_lifetime);
        assert_ne!(renewed, own);
        for attempt in 1..=3 {
            let expect = Request {
                attempt,
                ..first.clone()
            };
            assert_eq!(
                table.on_timeout(first.exchange, &mut node, &arena, 3),
                TimeoutOutcome::Retry { request: expect }
            );
        }
    }

    #[test]
    fn heap_bytes_count_what_a_pending_exchange_owns() {
        let (mut node, arena, target, mut rng) = initiator(vec![], 16);
        let mut table = Exchanges::default();
        assert_eq!(table.approx_heap_bytes(), 0);
        let req = table.begin(&mut node, &arena, target, 4, SimTime::ZERO, &mut rng);
        // Own pseudonym plus the one cached peer; the pending entry keeps
        // the own pseudonym inline and owns only the peer's handle.
        assert_eq!(req.offer.len(), 2);
        let entry = std::mem::size_of::<(u64, PendingExchange)>();
        let owned = table.pending[&req.exchange].sent_from_cache.capacity()
            * std::mem::size_of::<PseudonymHandle>();
        assert_eq!(owned, std::mem::size_of::<PseudonymHandle>());
        assert_eq!(
            table.approx_heap_bytes(),
            table.pending.capacity() * entry + owned
        );
        table.abandon(req.exchange);
        assert_eq!(
            table.approx_heap_bytes(),
            table.pending.capacity() * entry,
            "nothing owned once the exchange is gone"
        );
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        for (attempt, factor) in [(0, 1.0), (1, 2.0), (2, 4.0), (16, 65536.0), (17, 65536.0)] {
            assert_eq!(
                retry_backoff(3.0, attempt),
                3.0 * factor,
                "attempt {attempt}"
            );
        }
        assert_eq!(retry_backoff(3.0, u32::MAX), 3.0 * 65536.0);
    }

    #[test]
    fn exchange_ids_match_the_trace_reconstruction() {
        // xtrace rebuilds ids from a trace alone: the k-th ShuffleStart of
        // node n is exchange_id(n, k). Drive two initiators through the
        // core and check every id it assigns against that reconstruction.
        let mut table = Exchanges::default();
        let mut events = Vec::new();
        let mut assigned = Vec::new();
        let (mut a, arena_a, target_a, mut rng_a) = initiator(vec![], 13);
        let (mut b, arena_b, target_b, mut rng_b) = initiator(vec![], 14);
        b.id = 7;
        for (seq, first) in [true, false, true, true, false].into_iter().enumerate() {
            let req = if first {
                table.begin(&mut a, &arena_a, target_a, 4, SimTime::ZERO, &mut rng_a)
            } else {
                table.begin(&mut b, &arena_b, target_b, 4, SimTime::ZERO, &mut rng_b)
            };
            let node = if first { a.id } else { b.id };
            assert_eq!(exchange_initiator(req.exchange), node);
            assigned.push(req.exchange);
            events.push(veil_obs::TraceEvent {
                t: seq as f64,
                tid: 0,
                seq: seq as u64,
                node: Some(node),
                kind: veil_obs::EventKind::ShuffleStart {
                    target: u64::from(req.dest),
                    trusted: req.trusted_link,
                },
            });
        }
        assert_eq!(assigned[..2], [exchange_id(0, 0), exchange_id(7, 0)]);
        let mut reconstructed: Vec<u64> = veil_obs::correlate_exchanges(&events)
            .iter()
            .map(|r| r.exchange)
            .collect();
        assigned.sort_unstable();
        reconstructed.sort_unstable();
        assert_eq!(assigned, reconstructed);
    }

    #[test]
    fn responder_builds_its_offer_before_absorbing_the_request() {
        let cfg = small_cfg();
        let mut svc = PseudonymService::new(15);
        let mut arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(15);
        let mut node = node_with_pseudonym(0, &cfg, &mut svc, &mut rng);
        let incoming = [svc.mint(1, SimTime::ZERO, None)];
        let response = respond(
            &mut node,
            &mut arena,
            &incoming,
            cfg.shuffle_length,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(
            !response.contains(&incoming[0]),
            "never echoed straight back"
        );
        assert!(node.cache.contains(&arena, incoming[0].id()));
    }
}
