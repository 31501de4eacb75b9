//! Property-based tests for the scenario subsystem: the canonical TOML
//! serializer must round-trip every scenario exactly, and lowering any
//! scenario that passes semantic validation must produce a configuration
//! the existing machinery accepts (`OverlayConfig::validate`, a usable
//! availability, the scenario's own horizon).
//!
//! Two strategies feed them: `arb_scenario` generates *valid-leaning*
//! scenarios (values inside the documented ranges, phases sorted by
//! start key) so the lowering property sees a rich mix of phase
//! sequences, and `arb_wild_string` stresses the serializer's escaping
//! path with quotes, backslashes, and non-ASCII text. Residual semantic
//! conflicts (e.g. overlapping blackout regions from independently drawn
//! phases) are filtered with `prop_assume!` on `validate`.

use proptest::option;
use proptest::prelude::*;
use veil_core::health::DETECTOR_NAMES;
use veil_core::scenario::schema::{
    AttackSpec, GraphModel, HealthSpec, LatencyKind, LatencySpec, LinkSpec, OverlaySpec, Phase,
    Scenario,
};
use veil_core::scenario::{lower, parse_scenario_str, validate, Format};

fn arb_graph_model() -> impl Strategy<Value = GraphModel> {
    (any::<bool>(), 1usize..8, 1.5f64..8.0, 0.0f64..1.0).prop_map(
        |(holme_kim, attach, avg_degree, triad)| {
            if holme_kim {
                GraphModel::HolmeKim { attach, triad }
            } else {
                GraphModel::DegreeMatched { avg_degree, triad }
            }
        },
    )
}

fn arb_overlay() -> impl Strategy<Value = OverlaySpec> {
    (1usize..120, 1usize..60, 0.5f64..8.0, any::<u32>()).prop_flat_map(
        |(cache_size, target_links, shuffle_timeout, shuffle_retries)| {
            (1usize..=cache_size + 1, option::of(0.5f64..10.0)).prop_map(
                move |(shuffle_length, lifetime_ratio)| OverlaySpec {
                    cache_size,
                    shuffle_length,
                    target_links,
                    lifetime_ratio,
                    shuffle_timeout,
                    shuffle_retries,
                },
            )
        },
    )
}

fn arb_link() -> impl Strategy<Value = LinkSpec> {
    (
        0.0f64..0.9,
        sample::select(vec![
            LatencyKind::Constant,
            LatencyKind::Exponential,
            LatencyKind::Pareto,
        ]),
        0.0f64..2.0,
        1.1f64..5.0,
    )
        .prop_map(|(loss, dist, mean, shape)| LinkSpec {
            loss,
            latency: LatencySpec { dist, mean, shape },
        })
}

/// One phase, chosen by kind tag; starts land in `[1, 80)`, fractions
/// and regions stay inside the validated ranges (`from + fraction <= 1`,
/// at least one affected node at 20+ nodes).
fn arb_phase() -> impl Strategy<Value = Phase> {
    (
        (0usize..7, 1.0f64..80.0, 1.0f64..19.0),
        (0.05f64..0.5, 0.0f64..0.5),
        (2.0f64..20.0, 0.1f64..0.9, 1usize..5),
    )
        .prop_map(
            |((kind, start, duration), (fraction, from), (period, duty, count))| match kind {
                0 => Phase::FlashCrowd {
                    at: start,
                    fraction,
                    from,
                },
                1 => Phase::Blackout {
                    start,
                    duration,
                    fraction,
                    from,
                },
                2 => Phase::Partition {
                    start,
                    duration,
                    fraction,
                },
                3 => Phase::Crash {
                    start,
                    duration,
                    fraction,
                    from,
                },
                4 => Phase::ChurnWaves {
                    start,
                    period,
                    duty,
                    fraction,
                    waves: count,
                },
                5 => Phase::CreepingLoss {
                    start,
                    end: start + duration,
                    steps: count,
                    max_fraction: fraction,
                },
                _ => Phase::Eclipse {
                    start,
                    duration,
                    victims: fraction,
                },
            },
        )
}

/// A lower-case identifier-ish scenario name.
fn arb_name() -> impl Strategy<Value = String> {
    collection::vec(
        sample::select("abcdefghijklmnopqrstuvwxyz0123456789_-".chars().collect()),
        1..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Strings that stress the TOML escaping path: quotes, backslashes,
/// hashes (comment starter), brackets, spaces, and non-ASCII.
fn arb_wild_string() -> impl Strategy<Value = String> {
    collection::vec(
        sample::select(
            "ab z\"\\#[]=.'{}()!?:,0<>|%ü漢λ→"
                .chars()
                .collect::<Vec<char>>(),
        ),
        0..30,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// A valid-leaning scenario: every scalar inside its documented range,
/// phases sorted by start key, horizon past every phase start.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (arb_name(), any::<u64>(), 20usize..300, 100.0f64..200.0),
        (0.05f64..=1.0, 1.0f64..100.0, 0.1f64..=1.0, 1usize..10),
        (arb_graph_model(), arb_overlay(), arb_link()),
        // Health windows lie on the executor's 0.5-period grid.
        (
            any::<bool>(),
            (2u32..20).prop_map(|k| f64::from(k) * 0.5),
            option::of(1usize..20),
            any::<bool>(),
        ),
        (
            collection::vec(arb_phase(), 0..4),
            collection::vec(sample::select(DETECTOR_NAMES.to_vec()), 0..3),
        ),
    )
        .prop_map(
            |(
                (name, seed, nodes, horizon),
                (availability, mean_offline, trust_f, source_multiplier),
                (model, overlay, link),
                (health_enabled, window, observers, heal),
                (mut phases, forbid),
            )| {
                phases.sort_by(|a, b| {
                    a.start_key()
                        .partial_cmp(&b.start_key())
                        .expect("phase starts are finite")
                });
                let mut s = Scenario {
                    name,
                    seed,
                    nodes,
                    horizon,
                    availability,
                    mean_offline,
                    phases,
                    attack: observers.map(|observers| AttackSpec { observers }),
                    ..Scenario::default()
                };
                s.graph.model = model;
                s.graph.trust_f = trust_f;
                s.graph.source_multiplier = source_multiplier;
                s.overlay = overlay;
                s.link = link;
                s.health = HealthSpec {
                    enabled: health_enabled,
                    window,
                };
                // Remediation requires the monitor.
                s.remediation.enabled = health_enabled && heal;
                // Alert assertions require health.enabled, so detector
                // lists only ride along when the monitor is on.
                if health_enabled {
                    s.assertions.forbid_detectors = forbid.into_iter().map(String::from).collect();
                    s.assertions.forbid_detectors.sort();
                    s.assertions.forbid_detectors.dedup();
                }
                s
            },
        )
}

/// Guard for the `prop_assume!` in the lowering property: if the
/// strategy drifted so that validation rejects nearly every draw, that
/// property would silently become vacuous. Requires that a healthy
/// share of generated scenarios validate.
#[test]
fn generated_scenarios_mostly_validate() {
    let strategy = arb_scenario();
    let mut rng = TestRng::for_case("scenario_proptest::acceptance", 0);
    let total = 400;
    let ok = (0..total)
        .filter(|_| validate(&strategy.pick(&mut rng)).is_ok())
        .count();
    assert!(
        ok * 100 >= total * 40,
        "only {ok}/{total} generated scenarios validate — the lowering \
         property is starved; loosen the strategy or the validator drifted"
    );
}

proptest! {
    /// `parse(to_toml(s)) == s` for every scenario the strategy can
    /// build — the canonical serializer writes every field (defaults
    /// included) and `{:?}` float formatting is shortest-round-trip.
    #[test]
    fn canonical_toml_round_trips(s in arb_scenario()) {
        let text = s.to_toml();
        let (back, _) = parse_scenario_str(&text, Format::Toml, "fallback")
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n---\n{text}"));
        prop_assert_eq!(back, s);
    }

    /// String escaping: names and descriptions with quotes, backslashes,
    /// comment markers, and non-ASCII text survive the round trip.
    #[test]
    fn string_fields_round_trip(name in arb_wild_string(), description in arb_wild_string()) {
        let s = Scenario { name, description, ..Scenario::default() };
        let text = s.to_toml();
        let (back, _) = parse_scenario_str(&text, Format::Toml, "fallback")
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n---\n{text}"));
        prop_assert_eq!(back, s);
    }

    /// Any scenario that passes semantic validation lowers to a
    /// configuration the existing stack accepts: the overlay config
    /// validates (including the fault model embedded in the link
    /// layer), the availability is a usable churn parameter, and the
    /// horizon/seed/size are the scenario's own.
    #[test]
    fn validated_scenarios_lower_to_valid_configs(s in arb_scenario()) {
        prop_assume!(validate(&s).is_ok());
        let lowered = lower(&s)
            .unwrap_or_else(|e| panic!("lowering a validated scenario failed: {e}"));
        prop_assert!(
            lowered.params.overlay.validate().is_ok(),
            "lowered overlay config must validate: {:?}",
            lowered.params.overlay.validate()
        );
        prop_assert!(lowered.alpha > 0.0 && lowered.alpha <= 1.0);
        prop_assert_eq!(lowered.horizon, s.horizon);
        prop_assert_eq!(lowered.params.seed, s.seed);
        prop_assert_eq!(lowered.params.nodes, s.nodes);
        prop_assert_eq!(lowered.params.warmup, s.horizon);
    }
}
