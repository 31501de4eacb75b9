//! Semantic validation: rules that span multiple fields of an already
//! well-formed [`Scenario`] — phase ordering, overlapping blackout
//! regions, parameter ranges, and assertion/attack/health coherence.
//!
//! Only the rules the DSL owns are written here: top-level and `[graph]`
//! ranges, `lifetime_ratio`, whatever [`lower`] clamps before a config
//! could see it, phases, assertions, and cross-section coherence. The
//! range rules of everything that lowers 1:1 onto `OverlayConfig` — the
//! rest of `[overlay]`, `[link]`, `[health]` — are that
//! config's (and its fault model's) own `validate`, run on the lowered
//! value, so no rule is stated twice — save `link.loss`, restated so its
//! message names the key rather than the config's `link` field.
//!
//! Validation runs on the plain scenario value (so programmatically built
//! scenarios and property tests can use it without source text); when the
//! scenario came from a file, [`validate_with_spans`] maps each issue back
//! to the `[[phase]]` or `[assertions]` header it concerns.

use super::lower::{lower, phase_episodes};
use super::schema::{GraphModel, Phase, Scenario, ScenarioSpans};
use super::{ScenarioError, Span};
use veil_sim::fault::EpisodeEffect;

/// Which part of the scenario a validation issue concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Where {
    /// A top-level or sub-table field.
    Global,
    /// The `index`-th `[[phase]]` entry.
    Phase(usize),
    /// The `[assertions]` table.
    Assertions,
}

/// A single semantic problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Issue {
    /// Location category, mappable to a span via [`ScenarioSpans`].
    pub at: Where,
    /// What is wrong.
    pub message: String,
}

impl Issue {
    fn global(message: String) -> Self {
        Issue {
            at: Where::Global,
            message,
        }
    }

    fn phase(index: usize, message: String) -> Self {
        Issue {
            at: Where::Phase(index),
            message,
        }
    }

    fn assertions(message: String) -> Self {
        Issue {
            at: Where::Assertions,
            message,
        }
    }
}

/// Validates `s`, reporting the first issue found.
///
/// # Errors
///
/// The first [`Issue`], in this order: global parameters, graph and the
/// other DSL-owned ranges, phases (per-phase then cross-phase), the
/// lowered config's own rules, attack, assertions.
pub fn check(s: &Scenario) -> Result<(), Issue> {
    check_globals(s)?;
    check_phases(s)?;
    check_lowered(s)?;
    check_attack_and_assertions(s)?;
    Ok(())
}

/// [`check`] with issues flattened to a spanless [`ScenarioError`].
///
/// # Errors
///
/// See [`check`].
pub fn validate(s: &Scenario) -> Result<(), ScenarioError> {
    check(s).map_err(|issue| ScenarioError::new(issue.message))
}

/// [`check`] with issues mapped back to source spans recorded at parse
/// time: phase issues point at their `[[phase]]` header, assertion issues
/// at the `[assertions]` header.
///
/// # Errors
///
/// See [`check`].
pub fn validate_with_spans(s: &Scenario, spans: &ScenarioSpans) -> Result<(), ScenarioError> {
    check(s).map_err(|issue| {
        let span = match issue.at {
            Where::Global => Span::NONE,
            Where::Phase(i) => spans.phases.get(i).copied().unwrap_or(Span::NONE),
            Where::Assertions => spans.assertions.unwrap_or(Span::NONE),
        };
        ScenarioError::at(span, issue.message)
    })
}

/// The two range rules globals and phases share; `issue` says where the
/// offending value lives.
fn finite_positive(name: &str, v: f64, issue: impl Fn(String) -> Issue) -> Result<(), Issue> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(issue(format!(
            "{name} must be finite and positive, got {v}"
        )))
    }
}

fn fraction_01(
    name: &str,
    v: f64,
    open_top: bool,
    issue: impl Fn(String) -> Issue,
) -> Result<(), Issue> {
    let ok = v.is_finite() && v > 0.0 && if open_top { v < 1.0 } else { v <= 1.0 };
    if ok {
        Ok(())
    } else {
        let range = if open_top { "(0, 1)" } else { "(0, 1]" };
        Err(issue(format!("{name} must be in {range}, got {v}")))
    }
}

fn check_globals(s: &Scenario) -> Result<(), Issue> {
    if s.nodes < 20 {
        return Err(Issue::global(format!(
            "nodes must be at least 20 for a meaningful overlay, got {}",
            s.nodes
        )));
    }
    // Node ids are `u32` (`Graph::neighbors` is `&[u32]`), and the
    // source graph the trust graph is sampled from holds
    // `source_multiplier × nodes` of them.
    if s.nodes > u32::MAX as usize {
        return Err(Issue::global(format!(
            "nodes must be at most {} (node ids are u32), got {}",
            u32::MAX,
            s.nodes
        )));
    }
    finite_positive("horizon", s.horizon, Issue::global)?;
    fraction_01("availability", s.availability, false, Issue::global)?;
    finite_positive("mean_offline", s.mean_offline, Issue::global)?;

    fraction_01("graph.trust_f", s.graph.trust_f, false, Issue::global)?;
    if s.graph.source_multiplier == 0 {
        return Err(Issue::global(
            "graph.source_multiplier must be at least 1".into(),
        ));
    }
    if s.nodes.saturating_mul(s.graph.source_multiplier) > u32::MAX as usize {
        return Err(Issue::global(format!(
            "graph.source_multiplier × nodes must be at most {} (node ids are u32), got {} × {}",
            u32::MAX,
            s.graph.source_multiplier,
            s.nodes
        )));
    }
    let triad = match s.graph.model {
        GraphModel::HolmeKim { attach: 0, .. } => {
            return Err(Issue::global("graph.attach must be at least 1".into()));
        }
        GraphModel::HolmeKim { triad, .. } => triad,
        GraphModel::DegreeMatched { avg_degree, triad } => {
            finite_positive("graph.avg_degree", avg_degree, Issue::global)?;
            triad
        }
    };
    if !(triad.is_finite() && (0.0..=1.0).contains(&triad)) {
        return Err(Issue::global(format!(
            "graph.triad must be in [0, 1], got {triad}"
        )));
    }

    // A ratio of `mean_offline`, multiplied out only when the simulation
    // is built, so no config validator sees it.
    if let Some(r) = s.overlay.lifetime_ratio {
        finite_positive("overlay.lifetime_ratio", r, Issue::global)?;
    }
    if !(0.0..=1.0).contains(&s.link.loss) {
        return Err(Issue::global(format!(
            "link.loss must be in [0, 1], got {}",
            s.link.loss
        )));
    }
    // Lowering reads a mean <= 0 as "instant", which would hide a
    // negative one from the fault model's validator.
    if s.link.latency.mean < 0.0 {
        return Err(Issue::global(format!(
            "link.latency.mean must be finite and non-negative, got {}",
            s.link.latency.mean
        )));
    }
    if s.remediation.enabled && !s.health.enabled {
        return Err(Issue::global(
            "[remediation] requires `enabled = true` in [health] — the engine reacts to \
             health alerts and has nothing to consume without the monitor"
                .into(),
        ));
    }
    Ok(())
}

/// The range rules `OverlayConfig::validate` owns (with the health and
/// fault-model validators under it), applied to the lowered config and
/// reported under the config's field name. Runs after the phase checks,
/// so the episodes it sees are already well-formed. The health window is
/// checked even while the monitor is off: a latent bad value must not
/// hide until someone flips the switch.
fn check_lowered(s: &Scenario) -> Result<(), Issue> {
    let lowered = lower(s).map_err(|e| Issue::global(e.message))?;
    lowered
        .params
        .overlay
        .validate()
        .map_err(|e| Issue::global(e.to_string()))
}

fn check_phase(i: usize, p: &Phase, nodes: usize, horizon: f64) -> Result<(), Issue> {
    let kind = p.kind_str();
    let here = |msg: String| Issue::phase(i, format!("{kind} phase: {msg}"));
    let pos = |name: &str, v: f64| finite_positive(name, v, here);
    let nonneg = |name: &str, v: f64| -> Result<(), Issue> {
        if v.is_finite() && v >= 0.0 {
            Ok(())
        } else {
            Err(here(format!(
                "{name} must be finite and non-negative, got {v}"
            )))
        }
    };
    let frac = |name: &str, v: f64, open_top: bool| -> Result<(), Issue> {
        fraction_01(name, v, open_top, here)?;
        if (v * nodes as f64).round() < 1.0 {
            return Err(here(format!(
                "{name} = {v} affects no nodes at {nodes} nodes"
            )));
        }
        Ok(())
    };
    let region = |fraction: f64, from: f64| -> Result<(), Issue> {
        if !(from.is_finite() && (0.0..1.0).contains(&from)) {
            return Err(here(format!("from must be in [0, 1), got {from}")));
        }
        if from + fraction > 1.0 + 1e-9 {
            return Err(here(format!(
                "region [from, from + fraction) = [{from}, {}) exceeds the population",
                from + fraction
            )));
        }
        Ok(())
    };
    match *p {
        Phase::FlashCrowd { at, fraction, from } => {
            pos("at", at)?;
            frac("fraction", fraction, false)?;
            region(fraction, from)?;
            if fraction >= 1.0 - 1e-9 && from == 0.0 {
                return Err(here(
                    "the whole population cannot join as a flash crowd — nobody would be \
                     online to receive them"
                        .into(),
                ));
            }
        }
        Phase::Blackout {
            start,
            duration,
            fraction,
            from,
        }
        | Phase::Crash {
            start,
            duration,
            fraction,
            from,
        } => {
            nonneg("start", start)?;
            pos("duration", duration)?;
            frac("fraction", fraction, false)?;
            region(fraction, from)?;
        }
        Phase::Partition {
            start,
            duration,
            fraction,
        } => {
            nonneg("start", start)?;
            pos("duration", duration)?;
            frac("fraction", fraction, true)?;
        }
        Phase::ChurnWaves {
            start,
            period,
            duty,
            fraction,
            waves,
        } => {
            nonneg("start", start)?;
            pos("period", period)?;
            if !(duty.is_finite() && duty > 0.0 && duty < 1.0) {
                return Err(here(format!("duty must be in (0, 1), got {duty}")));
            }
            frac("fraction", fraction, false)?;
            if waves == 0 {
                return Err(here("waves must be at least 1".into()));
            }
        }
        Phase::CreepingLoss {
            start,
            end,
            steps,
            max_fraction,
        } => {
            nonneg("start", start)?;
            if !(end.is_finite() && end > start) {
                return Err(here(format!("end {end} must exceed start {start}")));
            }
            if steps == 0 {
                return Err(here("steps must be at least 1".into()));
            }
            frac("max_fraction", max_fraction, false)?;
        }
        Phase::Eclipse {
            start,
            duration,
            victims,
        } => {
            nonneg("start", start)?;
            pos("duration", duration)?;
            frac("victims", victims, true)?;
        }
    }
    if p.start_key() >= horizon {
        return Err(here(format!(
            "starts at t = {} but the horizon is {horizon} — it would never run",
            p.start_key()
        )));
    }
    Ok(())
}

fn check_phases(s: &Scenario) -> Result<(), Issue> {
    for (i, p) in s.phases.iter().enumerate() {
        check_phase(i, p, s.nodes, s.horizon)?;
    }
    // Phases must be declared in start order: the declaration order is
    // also the lowered episode order, which byte-equality against
    // hand-built configs depends on.
    for i in 1..s.phases.len() {
        let prev = s.phases[i - 1].start_key();
        let cur = s.phases[i].start_key();
        if cur < prev {
            return Err(Issue::phase(
                i,
                format!(
                    "phase {} ({}) starts at t = {cur}, before phase {} ({}) at t = {prev} — \
                     declare phases in start order",
                    i + 1,
                    s.phases[i].kind_str(),
                    i,
                    s.phases[i - 1].kind_str(),
                ),
            ));
        }
    }
    // No two blackout-style episodes (from different phases) may take an
    // overlapping node region offline over an overlapping time interval —
    // the lowered schedule would double-book those nodes and recovery
    // times become ambiguous.
    let mut blackouts: Vec<(usize, f64, f64, u32, u32)> = Vec::new();
    for (i, p) in s.phases.iter().enumerate() {
        for ep in phase_episodes(p, s.nodes) {
            if let EpisodeEffect::Blackout { first, count } = ep.effect {
                blackouts.push((i, ep.start, ep.end, first, count));
            }
        }
    }
    for (a_idx, a) in blackouts.iter().enumerate() {
        for b in &blackouts[a_idx + 1..] {
            if a.0 == b.0 {
                continue; // same phase (e.g. successive churn waves)
            }
            let time_overlap = a.1 < b.2 && b.1 < a.2;
            let region_overlap = a.3 < b.3 + b.4 && b.3 < a.3 + a.4;
            if time_overlap && region_overlap {
                return Err(Issue::phase(
                    b.0,
                    format!(
                        "phase {} ({}) blacks out nodes [{}, {}) over t = [{}, {}), \
                         overlapping phase {} ({}) on nodes [{}, {}) over t = [{}, {})",
                        b.0 + 1,
                        s.phases[b.0].kind_str(),
                        b.3,
                        b.3 + b.4,
                        b.1,
                        b.2,
                        a.0 + 1,
                        s.phases[a.0].kind_str(),
                        a.3,
                        a.3 + a.4,
                        a.1,
                        a.2,
                    ),
                ));
            }
        }
    }
    Ok(())
}

fn check_attack_and_assertions(s: &Scenario) -> Result<(), Issue> {
    if let Some(attack) = &s.attack {
        if attack.observers == 0 {
            return Err(Issue::global("attack.observers must be at least 1".into()));
        }
        if attack.observers >= s.nodes {
            return Err(Issue::global(format!(
                "attack.observers ({}) must be smaller than nodes ({})",
                attack.observers, s.nodes
            )));
        }
    }
    let a = &s.assertions;
    if a.needs_attack() && s.attack.is_none() {
        return Err(Issue::assertions(
            "observer assertions (max_observed_*, forbid_vertex_cut) require an [attack] \
             section"
                .into(),
        ));
    }
    if a.needs_health() && !s.health.enabled {
        return Err(Issue::assertions(
            "alert assertions require `enabled = true` in [health]".into(),
        ));
    }
    let unit = |name: &str, v: Option<f64>| -> Result<(), Issue> {
        if let Some(v) = v {
            if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                return Err(Issue::assertions(format!(
                    "{name} must be in [0, 1], got {v}"
                )));
            }
        }
        Ok(())
    };
    unit("max_disconnected", a.max_disconnected)?;
    unit("min_coverage", a.min_coverage)?;
    unit("min_shuffle_success_rate", a.min_shuffle_success_rate)?;
    unit("max_observed_node_fraction", a.max_observed_node_fraction)?;
    unit("max_observed_edge_fraction", a.max_observed_edge_fraction)?;
    for d in &a.require_detectors {
        if a.forbid_detectors.contains(d) {
            return Err(Issue::assertions(format!(
                "detector `{d}` is both required and forbidden"
            )));
        }
    }
    if let (Some(min), Some(max)) = (a.min_alerts, a.max_alerts) {
        if min > max {
            return Err(Issue::assertions(format!(
                "min_alerts ({min}) exceeds max_alerts ({max})"
            )));
        }
    }
    if let Some(bound) = a.recovery_time_at_most {
        if !(bound.is_finite() && bound > 0.0) {
            return Err(Issue::assertions(format!(
                "recovery_time_at_most must be finite and positive, got {bound}"
            )));
        }
        match super::lower::recovery_interval(s) {
            None => {
                return Err(Issue::assertions(
                    "recovery_time_at_most needs a blackout-style phase starting after \
                     t = 0 — there is no outage to recover from"
                        .into(),
                ))
            }
            Some((_, end)) if end >= s.horizon => {
                return Err(Issue::assertions(format!(
                    "recovery_time_at_most: the last blackout ends at t = {end}, at or \
                     past the horizon {} — recovery could never be observed",
                    s.horizon
                )))
            }
            Some(_) => {}
        }
    }
    if !a.reaction_fired.is_empty() && !s.remediation.enabled {
        return Err(Issue::assertions(
            "reaction_fired requires `enabled = true` in [remediation]".into(),
        ));
    }
    Ok(())
}

impl Scenario {
    /// Semantic validation; see [`validate`].
    ///
    /// # Errors
    ///
    /// The first semantic issue, spanless.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        validate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::schema::Assertions;
    use super::super::{parse_scenario_str, Format};
    use super::*;

    fn base() -> Scenario {
        Scenario {
            nodes: 100,
            horizon: 50.0,
            ..Scenario::default()
        }
    }

    #[test]
    fn default_scenario_is_valid() {
        base().validate().unwrap();
    }

    /// One out-of-range value per validated key, through the pipeline a
    /// file takes (parse, then validate): each must be rejected with a
    /// message that names the key. This is what shows that delegating a
    /// rule to the lowered config's validators lost none.
    #[test]
    fn every_range_rule_rejects_and_names_its_key() {
        let rows: &[(&str, &str)] = &[
            ("seed = 18446744073709551616", "seed"),
            ("nodes = 19", "nodes"),
            ("nodes = 4294967296", "nodes"),
            ("nodes = 18446744073709551615", "nodes"),
            (
                "nodes = 50000000\n[graph]\nsource_multiplier = 100",
                "graph.source_multiplier",
            ),
            ("horizon = 0", "horizon"),
            ("availability = 1.5", "availability"),
            ("mean_offline = -1", "mean_offline"),
            ("[graph]\ntrust_f = 0", "graph.trust_f"),
            ("[graph]\nsource_multiplier = 0", "graph.source_multiplier"),
            ("[graph]\nattach = 0", "graph.attach"),
            ("[graph]\ntriad = 1.5", "graph.triad"),
            (
                "[graph]\nmodel = \"dm\"\navg_degree = 0",
                "graph.avg_degree",
            ),
            ("[graph]\nmodel = \"dm\"\ntriad = -0.1", "graph.triad"),
            ("[overlay]\ncache_size = 0", "cache_size"),
            ("[overlay]\nshuffle_length = 0", "shuffle_length"),
            (
                "[overlay]\ncache_size = 10\nshuffle_length = 12",
                "shuffle_length",
            ),
            ("[overlay]\ntarget_links = 0", "target_links"),
            ("[overlay]\nlifetime_ratio = 0", "overlay.lifetime_ratio"),
            ("[overlay]\nlifetime_ratio = inf", "overlay.lifetime_ratio"),
            ("[overlay]\nshuffle_timeout = 0", "shuffle_timeout"),
            ("[overlay]\nshuffle_retries = 4294967297", "shuffle_retries"),
            ("[link]\nloss = 1.5", "link.loss"),
            ("[link]\nloss = -0.1", "link.loss"),
            ("[link.latency]\nmean = -0.5", "link.latency.mean"),
            ("[link.latency]\ndist = \"exponential\"\nmean = inf", "mean"),
            (
                "[link.latency]\ndist = \"pareto\"\nmean = 0.5\nshape = 1.0",
                "shape",
            ),
            ("[health]\nwindow = 0", "health.window"),
            ("[health]\nwindow = 3.3", "health.window"),
            ("[attack]\nobservers = 0", "attack.observers"),
            ("nodes = 50\n[attack]\nobservers = 50", "attack.observers"),
            ("[assertions]\nmax_disconnected = 1.5", "max_disconnected"),
            ("[assertions]\nmin_coverage = -0.1", "min_coverage"),
            (
                "[assertions]\nmin_shuffle_success_rate = 2",
                "min_shuffle_success_rate",
            ),
            (
                "[attack]\nobservers = 3\n[assertions]\nmax_observed_node_fraction = 1.5",
                "max_observed_node_fraction",
            ),
            (
                "[attack]\nobservers = 3\n[assertions]\nmax_observed_edge_fraction = -1",
                "max_observed_edge_fraction",
            ),
            (
                "[health]\nenabled = true\n[assertions]\nmin_alerts = 3\nmax_alerts = 2",
                "min_alerts",
            ),
            (
                "[assertions]\nrecovery_time_at_most = 0",
                "recovery_time_at_most",
            ),
        ];
        for &(text, key) in rows {
            let verdict = parse_scenario_str(text, Format::Toml, "row")
                .and_then(|(s, spans)| validate_with_spans(&s, &spans));
            match verdict {
                Ok(()) => panic!("accepted an out-of-range value:\n{text}"),
                Err(e) => assert!(
                    e.message.contains(key),
                    "the message for\n{text}\ndoes not name `{key}`: {}",
                    e.message
                ),
            }
        }
    }

    #[test]
    fn out_of_order_phases_rejected() {
        let mut s = base();
        s.phases = vec![
            Phase::Blackout {
                start: 20.0,
                duration: 5.0,
                fraction: 0.3,
                from: 0.0,
            },
            Phase::Crash {
                start: 10.0,
                duration: 5.0,
                fraction: 0.2,
                from: 0.5,
            },
        ];
        let issue = check(&s).unwrap_err();
        assert_eq!(issue.at, Where::Phase(1));
        assert!(issue.message.contains("start order"), "{}", issue.message);
    }

    #[test]
    fn overlapping_blackouts_rejected() {
        let mut s = base();
        s.phases = vec![
            Phase::Blackout {
                start: 10.0,
                duration: 10.0,
                fraction: 0.5,
                from: 0.0,
            },
            Phase::Blackout {
                start: 15.0,
                duration: 10.0,
                fraction: 0.5,
                from: 0.25,
            },
        ];
        let issue = check(&s).unwrap_err();
        assert_eq!(issue.at, Where::Phase(1));
        assert!(issue.message.contains("overlapping"), "{}", issue.message);
    }

    #[test]
    fn disjoint_regions_may_overlap_in_time() {
        let mut s = base();
        s.phases = vec![
            Phase::Blackout {
                start: 10.0,
                duration: 10.0,
                fraction: 0.3,
                from: 0.0,
            },
            Phase::Blackout {
                start: 12.0,
                duration: 10.0,
                fraction: 0.3,
                from: 0.5,
            },
        ];
        check(&s).unwrap();
    }

    #[test]
    fn attack_assertions_need_attack_section() {
        let mut s = base();
        s.assertions = Assertions {
            forbid_vertex_cut: true,
            ..Assertions::default()
        };
        let issue = check(&s).unwrap_err();
        assert_eq!(issue.at, Where::Assertions);
        assert!(issue.message.contains("[attack]"), "{}", issue.message);
    }

    #[test]
    fn alert_assertions_need_health_enabled() {
        let mut s = base();
        s.assertions.max_alerts = Some(3);
        let issue = check(&s).unwrap_err();
        assert!(issue.message.contains("[health]"), "{}", issue.message);
        s.health.enabled = true;
        check(&s).unwrap();
    }

    #[test]
    fn remediation_needs_health_enabled() {
        let mut s = base();
        s.remediation.enabled = true;
        let issue = check(&s).unwrap_err();
        assert!(issue.message.contains("[health]"), "{}", issue.message);
        s.health.enabled = true;
        check(&s).unwrap();
    }

    #[test]
    fn recovery_assertion_needs_a_blackout_phase() {
        let mut s = base();
        s.assertions.recovery_time_at_most = Some(10.0);
        let issue = check(&s).unwrap_err();
        assert_eq!(issue.at, Where::Assertions);
        assert!(issue.message.contains("blackout"), "{}", issue.message);

        s.phases = vec![Phase::Blackout {
            start: 20.0,
            duration: 40.0,
            fraction: 0.5,
            from: 0.0,
        }];
        // Ends at 60 > horizon 50: recovery unobservable.
        let issue = check(&s).unwrap_err();
        assert!(issue.message.contains("horizon"), "{}", issue.message);

        s.phases = vec![Phase::Blackout {
            start: 20.0,
            duration: 10.0,
            fraction: 0.5,
            from: 0.0,
        }];
        check(&s).unwrap();
    }

    #[test]
    fn reaction_fired_needs_remediation() {
        let mut s = base();
        s.assertions.reaction_fired = vec!["rebootstrap".into()];
        let issue = check(&s).unwrap_err();
        assert!(issue.message.contains("[remediation]"), "{}", issue.message);

        s.health.enabled = true;
        s.remediation.enabled = true;
        check(&s).unwrap();
    }

    #[test]
    fn phase_past_horizon_rejected() {
        let mut s = base();
        s.phases = vec![Phase::Blackout {
            start: 60.0,
            duration: 5.0,
            fraction: 0.3,
            from: 0.0,
        }];
        let issue = check(&s).unwrap_err();
        assert!(issue.message.contains("never run"), "{}", issue.message);
    }
}
