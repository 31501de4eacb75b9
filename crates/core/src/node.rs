//! Per-node protocol state: trusted links, cache, sampler, own pseudonym.

use crate::cache::Cache;
use crate::config::OverlayConfig;
use crate::pseudonym::{Pseudonym, PseudonymArena, PseudonymService};
use rand::Rng;
use veil_sim::SimTime;

/// One end of an overlay link, from the owning node's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTarget {
    /// A trusted link to a trust-graph neighbour, addressed by node ID
    /// (both ends know each other's identity).
    Trusted(u32),
    /// A pseudonym link, addressed by pseudonym (neither end learns the
    /// other's identity).
    Pseudonym(Pseudonym),
}

impl LinkTarget {
    /// Resolves the link to the destination node index.
    ///
    /// For pseudonym links this models the pseudonym service performing the
    /// delivery; the sending node itself never learns the result.
    pub fn resolve(&self) -> u32 {
        match self {
            LinkTarget::Trusted(n) => *n,
            LinkTarget::Pseudonym(p) => p.owner(),
        }
    }

    /// Whether this is a trusted link.
    pub fn is_trusted(&self) -> bool {
        matches!(self, LinkTarget::Trusted(_))
    }
}

/// Message and activity statistics of one node.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeStats {
    /// Shuffle requests sent (one per shuffle period while online, when the
    /// node has at least one link).
    pub requests_sent: u64,
    /// Shuffle responses sent (one per delivered incoming request).
    pub responses_sent: u64,
    /// Shuffle messages this node sent that were never delivered: the peer
    /// was offline, churned away mid-transit, or the fault-injecting link
    /// layer dropped the message.
    pub dropped_requests: u64,
    /// Shuffle exchanges abandoned after the retry budget was exhausted
    /// (faulty link layer only); each triggers Cyclon-style eviction of the
    /// unresponsive pseudonym.
    pub shuffle_failures: u64,
    /// Timed-out shuffle requests that were retransmitted (faulty link
    /// layer only).
    pub shuffle_retries: u64,
    /// Shuffle rounds skipped by the adaptive stability detector
    /// (`stop_after_stable_periods`).
    pub shuffles_suppressed: u64,
    /// Accumulated time spent online, in shuffle periods.
    pub online_time: f64,
}

impl NodeStats {
    /// Total messages sent (requests + responses).
    pub fn messages_sent(&self) -> u64 {
        self.requests_sent + self.responses_sent
    }

    /// Average messages sent per shuffle period of online time
    /// (the quantity plotted in Figure 6). `0.0` if never online.
    pub fn messages_per_period(&self) -> f64 {
        if self.online_time <= 0.0 {
            0.0
        } else {
            self.messages_sent() as f64 / self.online_time
        }
    }
}

/// The complete protocol state of one participant.
///
/// Composes the trusted neighbour list (from the trust graph), the Cyclon
/// cache, the Brahms sampler, and the node's own current pseudonym. State
/// survives offline periods: "when a node rejoins the system, it retains
/// the state data that it had prior to the failure" (Section II-D).
#[derive(Debug)]
pub struct Node {
    /// The node's index in the trust graph.
    pub id: u32,
    trusted: Vec<u32>,
    /// Pseudonym cache (gossip working set).
    pub cache: Cache,
    /// Min-wise sampler deciding which pseudonyms become links.
    pub sampler: crate::sampler::Sampler,
    own: Option<Pseudonym>,
    /// Until when the node withholds its own pseudonym from shuffle offers
    /// (the remediation engine's in-degree-skew throttle); `-inf` when
    /// never throttled.
    throttle_until: f64,
    /// Activity statistics.
    pub stats: NodeStats,
    /// How many tracked exchanges the node has begun; the next one's id is
    /// [`crate::protocol::exchange_id`]`(id, exchange_seq)`.
    pub(crate) exchange_seq: u64,
}

impl Node {
    /// Creates the node's initial state from the overlay configuration and
    /// its trusted neighbour list.
    ///
    /// The sampler's slot count follows the configured [`SlotPolicy`]:
    /// by default `max(min_slots, target_links − |trusted|)`, so hubs rely
    /// on their trusted links.
    ///
    /// [`SlotPolicy`]: crate::config::SlotPolicy
    pub fn new<R: Rng + ?Sized>(
        id: u32,
        trusted: Vec<u32>,
        cfg: &OverlayConfig,
        rng: &mut R,
    ) -> Self {
        let slots = cfg.slots_for_degree(trusted.len());
        Self {
            id,
            trusted,
            cache: Cache::new(cfg.cache_size),
            sampler: crate::sampler::Sampler::new(
                slots,
                cfg.distance_metric,
                cfg.minwise_sampling,
                rng,
            ),
            own: None,
            throttle_until: f64::NEG_INFINITY,
            stats: NodeStats::default(),
            exchange_seq: 0,
        }
    }

    /// The node's trust-graph neighbours.
    pub fn trusted(&self) -> &[u32] {
        &self.trusted
    }

    /// The node's current pseudonym, if one has been created and not
    /// expired by `now`.
    pub fn own_pseudonym(&self, now: SimTime) -> Option<Pseudonym> {
        self.own.filter(|p| p.is_valid(now))
    }

    /// Whether the node needs a fresh pseudonym at `now`.
    pub fn needs_pseudonym(&self, now: SimTime) -> bool {
        self.own_pseudonym(now).is_none()
    }

    /// Withholds the node's own pseudonym from outgoing shuffle offers
    /// until `until` (the remediation engine's contribution throttle for
    /// over-represented hubs). Extends but never shortens an active
    /// throttle.
    pub fn throttle_contribution(&mut self, until: SimTime) {
        self.throttle_until = self.throttle_until.max(until.as_f64());
    }

    /// Whether the contribution throttle is active at `now`.
    pub fn contribution_throttled(&self, now: SimTime) -> bool {
        now.as_f64() < self.throttle_until
    }

    /// Mints and installs a fresh pseudonym ("every node creates a
    /// pseudonym to represent itself when it starts" and again whenever the
    /// previous one expires).
    pub fn renew_pseudonym(
        &mut self,
        svc: &mut PseudonymService,
        now: SimTime,
        lifetime: Option<f64>,
    ) -> Pseudonym {
        let p = svc.mint(self.id, now, lifetime);
        self.own = Some(p);
        p
    }

    /// Drops expired pseudonyms from the cache and sampler; returns the
    /// number of pseudonym *links* removed (the expiry side of Figure 9).
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        self.cache.purge_expired(now);
        self.sampler.purge_expired(now)
    }

    /// The node's overlay links: trusted links plus the sampled pseudonym
    /// links valid at `now` (`n.links` in the paper).
    pub fn links(&self, arena: &PseudonymArena, now: SimTime) -> Vec<LinkTarget> {
        self.links_iter(arena, now).collect()
    }

    /// [`Node::links`] without the allocation, in the one canonical order:
    /// trusted neighbours, then the sampler's valid links by ascending
    /// pseudonym id.
    pub fn links_iter<'a>(
        &'a self,
        arena: &'a PseudonymArena,
        now: SimTime,
    ) -> impl Iterator<Item = LinkTarget> + 'a {
        let trusted = self.trusted.iter().map(|&t| LinkTarget::Trusted(t));
        let sampled = self.sampler.links_iter(arena);
        trusted.chain(
            sampled
                .filter(move |p| p.is_valid(now))
                .map(LinkTarget::Pseudonym),
        )
    }

    /// Picks one link uniformly at random ("periodically, n selects a link
    /// from n.links uniformly at random"); `None` when the node has no
    /// links at all.
    pub fn pick_link<R: Rng + ?Sized>(
        &self,
        arena: &PseudonymArena,
        now: SimTime,
        rng: &mut R,
    ) -> Option<LinkTarget> {
        self.pick_link_where(arena, now, rng, |_| true)
    }

    /// [`Node::pick_link`] restricted to links whose endpoint `accept`s —
    /// the `skip_offline_peers` pick, with the executor's deliverability
    /// oracle as `accept`. Two passes over the links (count, then take the
    /// drawn one) instead of a buffer: link order is kept and the RNG is
    /// drawn from exactly once, and only when some link qualifies.
    pub fn pick_link_where<R: Rng + ?Sized>(
        &self,
        arena: &PseudonymArena,
        now: SimTime,
        rng: &mut R,
        accept: impl Fn(u32) -> bool,
    ) -> Option<LinkTarget> {
        let accepted = || self.links_iter(arena, now).filter(|l| accept(l.resolve()));
        match accepted().count() {
            0 => None,
            n => accepted().nth(rng.gen_range(0..n)),
        }
    }

    /// Current overlay out-degree: trusted links plus distinct pseudonym
    /// links.
    pub fn out_degree(&self, arena: &PseudonymArena, now: SimTime) -> usize {
        self.links(arena, now).len()
    }

    /// Approximate heap footprint of this node's protocol state in bytes
    /// (the canonical pseudonym copies live in the shared arena).
    pub fn approx_heap_bytes(&self) -> usize {
        self.trusted.capacity() * std::mem::size_of::<u32>()
            + self.cache.approx_heap_bytes()
            + self.sampler.approx_heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_node(id: u32, trusted: Vec<u32>) -> Node {
        let cfg = OverlayConfig::default();
        let mut rng = StdRng::seed_from_u64(id as u64 + 100);
        Node::new(id, trusted, &cfg, &mut rng)
    }

    #[test]
    fn slot_budget_respects_trust_degree() {
        let lone = make_node(0, vec![]);
        assert_eq!(lone.sampler.slot_count(), 50);
        let social = make_node(1, (0..20).collect());
        assert_eq!(social.sampler.slot_count(), 30);
        let hub = make_node(2, (0..80).collect());
        assert_eq!(hub.sampler.slot_count(), 0);
    }

    #[test]
    fn pseudonym_lifecycle() {
        let mut node = make_node(0, vec![]);
        let mut svc = PseudonymService::new(1);
        assert!(node.needs_pseudonym(SimTime::ZERO));
        let p = node.renew_pseudonym(&mut svc, SimTime::ZERO, Some(10.0));
        assert_eq!(node.own_pseudonym(SimTime::ZERO), Some(p));
        assert!(!node.needs_pseudonym(SimTime::new(9.0)));
        assert!(node.needs_pseudonym(SimTime::new(10.0)));
        let p2 = node.renew_pseudonym(&mut svc, SimTime::new(10.0), Some(10.0));
        assert_ne!(p.id(), p2.id());
    }

    #[test]
    fn links_merge_trusted_and_sampled() {
        let mut node = make_node(0, vec![7, 9]);
        let mut svc = PseudonymService::new(2);
        let mut arena = PseudonymArena::new();
        let p = svc.mint(3, SimTime::ZERO, None);
        node.sampler.offer(&mut arena, p, SimTime::ZERO);
        let links = node.links(&arena, SimTime::ZERO);
        assert_eq!(links.len(), 3);
        assert!(links.contains(&LinkTarget::Trusted(7)));
        assert!(links.contains(&LinkTarget::Trusted(9)));
        assert!(links.iter().any(|l| l.resolve() == 3 && !l.is_trusted()));
        assert_eq!(node.out_degree(&arena, SimTime::ZERO), 3);
    }

    #[test]
    fn expired_pseudonym_links_excluded() {
        let mut node = make_node(0, vec![]);
        let mut svc = PseudonymService::new(3);
        let mut arena = PseudonymArena::new();
        let p = svc.mint(3, SimTime::ZERO, Some(5.0));
        node.sampler.offer(&mut arena, p, SimTime::ZERO);
        assert_eq!(node.links(&arena, SimTime::new(4.0)).len(), 1);
        assert_eq!(node.links(&arena, SimTime::new(5.0)).len(), 0);
    }

    #[test]
    fn purge_counts_link_removals() {
        let mut node = make_node(0, vec![]);
        let mut svc = PseudonymService::new(4);
        let mut arena = PseudonymArena::new();
        let p = svc.mint(3, SimTime::ZERO, Some(5.0));
        node.sampler.offer(&mut arena, p, SimTime::ZERO);
        node.cache.insert(&mut arena, p, SimTime::ZERO);
        assert_eq!(node.purge_expired(SimTime::new(6.0)), 1);
        assert!(node.cache.is_empty());
        assert_eq!(node.sampler.link_count(), 0);
    }

    #[test]
    fn pick_link_none_when_isolated() {
        let node = make_node(0, vec![]);
        let arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(node.pick_link(&arena, SimTime::ZERO, &mut rng).is_none());
    }

    #[test]
    fn pick_link_uniform_over_links() {
        let node = make_node(0, vec![1, 2, 3, 4]);
        let arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(6);
        let mut counts = [0u32; 5];
        for _ in 0..4000 {
            if let Some(LinkTarget::Trusted(t)) = node.pick_link(&arena, SimTime::ZERO, &mut rng) {
                counts[t as usize] += 1;
            }
        }
        for &c in &counts[1..] {
            assert!((800..1200).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn pick_link_where_filters_and_draws_only_when_a_link_qualifies() {
        let node = make_node(0, vec![1, 2, 3, 4]);
        let arena = PseudonymArena::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let picked = node.pick_link_where(&arena, SimTime::ZERO, &mut rng, |u| u != 3);
            assert!(matches!(picked, Some(LinkTarget::Trusted(1 | 2 | 4))));
        }
        // No qualifying link: `None`, and the RNG stream is untouched (the
        // executors' byte-identity depends on exactly one draw per pick).
        let mut untouched = rng.clone();
        let none = node.pick_link_where(&arena, SimTime::ZERO, &mut rng, |_| false);
        assert!(none.is_none());
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>());
    }

    #[test]
    fn stats_message_rates() {
        let stats = NodeStats {
            requests_sent: 10,
            responses_sent: 8,
            dropped_requests: 2,
            shuffle_failures: 0,
            shuffle_retries: 0,
            shuffles_suppressed: 0,
            online_time: 9.0,
        };
        assert_eq!(stats.messages_sent(), 18);
        assert!((stats.messages_per_period() - 2.0).abs() < 1e-12);
        assert_eq!(NodeStats::default().messages_per_period(), 0.0);
    }
}
