//! Property-based tests for the overlay protocol's core data structures:
//! the min-wise sampler invariant, cache bounds, offer construction, and
//! configuration consistency.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use veil_core::cache::Cache;
use veil_core::config::{DistanceMetric, OverlayConfig, SlotPolicy};
use veil_core::node::Node;
use veil_core::protocol::{build_offer, execute_shuffle, receive_offer, ShuffleScratch};
use veil_core::pseudonym::{Pseudonym, PseudonymArena, PseudonymService};
use veil_core::sampler::Sampler;
use veil_sim::SimTime;

fn mint(n: usize, lifetime: Option<f64>, seed: u64) -> Vec<Pseudonym> {
    let mut svc = PseudonymService::new(seed);
    (0..n)
        .map(|i| svc.mint(i as u32, SimTime::ZERO, lifetime))
        .collect()
}

proptest! {
    #[test]
    fn sampler_keeps_global_minimum_per_slot(
        slots in 1usize..20,
        count in 1usize..100,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = Sampler::new(slots, DistanceMetric::Absolute, true, &mut rng);
        let mut arena = PseudonymArena::new();
        let offered = mint(count, None, seed);
        for &p in &offered {
            sampler.offer(&mut arena, p, SimTime::ZERO);
        }
        // Every link is one of the offered pseudonyms, and the number of
        // distinct links never exceeds min(slots, count).
        let links: Vec<_> = sampler.links_iter(&arena).collect();
        prop_assert!(links.len() <= slots.min(count));
        for l in &links {
            prop_assert!(offered.iter().any(|p| p.id() == l.id()));
        }
        // Counter invariant.
        prop_assert_eq!(
            sampler.additions() - sampler.removals(),
            sampler.link_count() as u64
        );
    }

    #[test]
    fn sampler_result_is_order_independent(
        slots in 1usize..10,
        count in 1usize..40,
        seed in any::<u64>(),
        swap in any::<u64>(),
    ) {
        // Min-wise sampling is insensitive to delivery order and frequency:
        // the final link set over the same offered set is identical.
        let offered = mint(count, None, seed);
        let mut shuffled = offered.clone();
        // Deterministic permutation derived from `swap`.
        let mut s = swap;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut a = Sampler::new(slots, DistanceMetric::Absolute, true, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let mut b = Sampler::new(slots, DistanceMetric::Absolute, true, &mut rng_b);
        let mut arena = PseudonymArena::new();
        for &p in &offered {
            a.offer(&mut arena, p, SimTime::ZERO);
        }
        for &p in &shuffled {
            b.offer(&mut arena, p, SimTime::ZERO);
            b.offer(&mut arena, p, SimTime::ZERO); // frequency bias must not matter
        }
        let ids_a: Vec<_> = a.links_iter(&arena).map(|p| p.id()).collect();
        let ids_b: Vec<_> = b.links_iter(&arena).map(|p| p.id()).collect();
        prop_assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn sampler_purge_only_removes_expired(
        slots in 1usize..10,
        lifetimes in prop::collection::vec(1.0f64..100.0, 1..30),
        now in 0.0f64..120.0,
        seed in any::<u64>(),
    ) {
        let mut svc = PseudonymService::new(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = Sampler::new(slots, DistanceMetric::Absolute, true, &mut rng);
        let mut arena = PseudonymArena::new();
        for (i, &l) in lifetimes.iter().enumerate() {
            let p = svc.mint(i as u32, SimTime::ZERO, Some(l));
            sampler.offer(&mut arena, p, SimTime::ZERO);
        }
        sampler.purge_expired(SimTime::new(now));
        for p in sampler.links_iter(&arena) {
            prop_assert!(p.is_valid(SimTime::new(now)));
        }
    }

    #[test]
    fn cache_never_exceeds_capacity(
        capacity in 1usize..50,
        batches in prop::collection::vec(1usize..30, 1..10),
        seed in any::<u64>(),
    ) {
        let mut svc = PseudonymService::new(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = Cache::new(capacity);
        let mut arena = PseudonymArena::new();
        for (bi, &batch) in batches.iter().enumerate() {
            let incoming: Vec<Pseudonym> = (0..batch)
                .map(|i| svc.mint((bi * 100 + i) as u32, SimTime::ZERO, None))
                .collect();
            cache.absorb(&mut arena, &incoming, &[], None, SimTime::ZERO, &mut rng);
            prop_assert!(cache.len() <= capacity);
        }
    }

    #[test]
    fn cache_select_offer_returns_distinct_members(
        capacity in 1usize..40,
        fill in 0usize..40,
        request in 0usize..60,
        seed in any::<u64>(),
    ) {
        let mut svc = PseudonymService::new(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = Cache::new(capacity);
        let mut arena = PseudonymArena::new();
        for i in 0..fill {
            cache.insert(&mut arena, svc.mint(i as u32, SimTime::ZERO, None), SimTime::ZERO);
        }
        let offer = cache.select_offer(&arena, request, &mut rng);
        prop_assert_eq!(offer.len(), request.min(cache.len()));
        let mut ids: Vec<_> = offer.iter().map(|&h| arena.get(h).id()).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), offer.len());
        for id in ids {
            prop_assert!(cache.contains(&arena, id));
        }
    }

    #[test]
    fn offer_length_respects_shuffle_budget(
        shuffle_length in 1usize..50,
        fill in 0usize..80,
        seed in any::<u64>(),
    ) {
        let cfg = OverlayConfig {
            cache_size: 100,
            shuffle_length,
            target_links: 10,
            ..OverlayConfig::default()
        };
        let mut svc = PseudonymService::new(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut node = Node::new(0, vec![], &cfg, &mut rng);
        let mut arena = PseudonymArena::new();
        node.renew_pseudonym(&mut svc, SimTime::ZERO, None);
        for i in 0..fill {
            node.cache
                .insert(&mut arena, svc.mint(1 + i as u32, SimTime::ZERO, None), SimTime::ZERO);
        }
        let offer = build_offer(&mut node, &arena, shuffle_length, SimTime::ZERO, &mut rng);
        prop_assert!(offer.entries.len() <= shuffle_length);
        prop_assert!(!offer.entries.is_empty(), "own pseudonym always included");
        // No duplicates in the offer.
        let mut ids: Vec<_> = offer.entries.iter().map(|p| p.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), offer.entries.len());
    }

    #[test]
    fn receive_offer_never_links_own_pseudonyms(
        count in 1usize..30,
        seed in any::<u64>(),
    ) {
        let cfg = OverlayConfig {
            cache_size: 100,
            shuffle_length: 10,
            target_links: 10,
            ..OverlayConfig::default()
        };
        let mut svc = PseudonymService::new(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut node = Node::new(5, vec![], &cfg, &mut rng);
        node.renew_pseudonym(&mut svc, SimTime::ZERO, None);
        // Attacker replays the node's own (old and current) pseudonyms.
        let mut replayed: Vec<Pseudonym> =
            (0..count).map(|_| svc.mint(5, SimTime::ZERO, None)).collect();
        replayed.push(node.own_pseudonym(SimTime::ZERO).unwrap());
        let mut arena = PseudonymArena::new();
        receive_offer(&mut node, &mut arena, &replayed, &[], SimTime::ZERO, &mut rng);
        prop_assert_eq!(node.sampler.link_count(), 0, "no self links ever");
    }

    #[test]
    fn shuffle_preserves_pseudonym_conservation(
        fill_a in 0usize..40,
        fill_b in 0usize..40,
        seed in any::<u64>(),
    ) {
        // A shuffle never invents pseudonyms: everything in either cache
        // afterwards was in one of the caches or is an own pseudonym.
        let cfg = OverlayConfig {
            cache_size: 100,
            shuffle_length: 10,
            target_links: 10,
            ..OverlayConfig::default()
        };
        let mut svc = PseudonymService::new(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Node::new(0, vec![], &cfg, &mut rng);
        let mut b = Node::new(1, vec![], &cfg, &mut rng);
        a.renew_pseudonym(&mut svc, SimTime::ZERO, None);
        b.renew_pseudonym(&mut svc, SimTime::ZERO, None);
        let mut universe: Vec<Pseudonym> = Vec::new();
        universe.push(a.own_pseudonym(SimTime::ZERO).unwrap());
        universe.push(b.own_pseudonym(SimTime::ZERO).unwrap());
        let mut arena = PseudonymArena::new();
        for i in 0..fill_a {
            let p = svc.mint(100 + i as u32, SimTime::ZERO, None);
            a.cache.insert(&mut arena, p, SimTime::ZERO);
            universe.push(p);
        }
        for i in 0..fill_b {
            let p = svc.mint(200 + i as u32, SimTime::ZERO, None);
            b.cache.insert(&mut arena, p, SimTime::ZERO);
            universe.push(p);
        }
        let scratch = &mut ShuffleScratch::default();
        execute_shuffle(&mut a, &mut b, &mut arena, cfg.shuffle_length, SimTime::ZERO, &mut rng, scratch);
        for node in [&a, &b] {
            for p in node.cache.iter(&arena) {
                prop_assert!(universe.iter().any(|u| u.id() == p.id()));
            }
        }
    }

    #[test]
    fn slot_budget_is_monotone_in_degree(
        target in 1usize..100,
        min_slots in 0usize..20,
        d1 in 0usize..150,
        d2 in 0usize..150,
    ) {
        let cfg = OverlayConfig {
            target_links: target,
            min_slots,
            slot_policy: SlotPolicy::DegreeAware,
            ..OverlayConfig::default()
        };
        let (lo, hi) = (d1.min(d2), d1.max(d2));
        prop_assert!(cfg.slots_for_degree(lo) >= cfg.slots_for_degree(hi));
        prop_assert!(cfg.slots_for_degree(d1) >= min_slots);
        prop_assert!(cfg.slots_for_degree(d1) <= target.max(min_slots));
    }

    #[test]
    fn random_small_simulations_preserve_invariants(
        seed in any::<u64>(),
        alpha_pct in 10u32..100,
        lifetime in prop::option::of(5.0f64..60.0),
        horizon in 5.0f64..60.0,
    ) {
        // Whole-system fuzz: arbitrary seed/availability/lifetime/horizon,
        // then check the structural invariants that must always hold.
        let mut rng = StdRng::seed_from_u64(seed);
        let trust = veil_graph::generators::social_graph(30, 2, &mut rng).unwrap();
        let cfg = OverlayConfig {
            cache_size: 30,
            shuffle_length: 6,
            target_links: 8,
            pseudonym_lifetime: lifetime,
            ..OverlayConfig::default()
        };
        let churn =
            veil_sim::churn::ChurnConfig::from_availability(alpha_pct as f64 / 100.0, 10.0);
        let mut sim = veil_core::simulation::Simulation::new(trust.clone(), cfg, churn, seed)
            .unwrap();
        sim.run_until(horizon);
        let now = sim.now();
        for v in 0..sim.node_count() {
            let node = sim.node(v);
            // 1. No self links, no links through expired pseudonyms.
            for p in node.sampler.links_iter(sim.arena_of(v)) {
                prop_assert_ne!(p.owner(), v as u32, "self link at node {}", v);
            }
            // 2. Trusted neighbour list still matches the trust graph.
            let expected: Vec<u32> = trust.neighbors(v).to_vec();
            prop_assert_eq!(node.trusted(), expected.as_slice());
            // 3. Cache within capacity.
            prop_assert!(node.cache.len() <= node.cache.capacity());
            // 4. Counter balance.
            prop_assert_eq!(
                node.sampler.additions() - node.sampler.removals(),
                node.sampler.link_count() as u64
            );
            // 5. Stats sanity.
            let stats = sim.node_stats(v);
            prop_assert!(stats.online_time >= 0.0);
            prop_assert!(stats.online_time <= now.as_f64() + 1e-9);
            prop_assert!(stats.dropped_requests <= stats.requests_sent);
        }
        // 6. Overlay graph is simple and contains the trust edges.
        let overlay = sim.overlay_graph();
        for (a, b) in trust.edges() {
            prop_assert!(overlay.has_edge(a, b));
        }
    }

    #[test]
    fn validated_configs_build_simulations(
        cache_size in 1usize..200,
        shuffle_length in 1usize..100,
        target_links in 1usize..60,
    ) {
        let cfg = OverlayConfig {
            cache_size,
            shuffle_length,
            target_links,
            ..OverlayConfig::default()
        };
        if cfg.validate().is_ok() {
            let mut rng = StdRng::seed_from_u64(1);
            let trust = veil_graph::generators::social_graph(20, 2, &mut rng).unwrap();
            let churn = veil_sim::churn::ChurnConfig::from_availability(0.5, 10.0);
            let sim = veil_core::simulation::Simulation::new(trust, cfg, churn, 1);
            prop_assert!(sim.is_ok());
        } else {
            prop_assert!(shuffle_length > cache_size + 1 || cache_size == 0 || shuffle_length == 0);
        }
    }
}
