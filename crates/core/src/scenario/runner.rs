//! Scenario execution: validate → lower → simulate → assert, plus the
//! seed/shard campaign sweeper.
//!
//! A run records a full observability trace, takes the final overlay
//! snapshot, floods from the best-connected online node for coverage,
//! optionally audits an observer attack (via an injected evaluator —
//! `veil-core` cannot depend on `veil-privacy`, which depends on it), and
//! grades every assertion. Everything in a [`ScenarioOutcome`] is a pure
//! function of (scenario, seed, shards): no wall-clock, no machine
//! identity — campaign reports are byte-identical across serial and
//! parallel sweeps, which the conformance suite pins.

use super::lower::{lower, recovery_interval};
use super::schema::{AttackSpec, Scenario};
use super::ScenarioError;
use crate::dissemination::flood_current_overlay;
use crate::experiment::{
    best_connected_online, build_simulation, build_trust_graph, measure_recovery,
};
use crate::metrics::{snapshot, OverlaySnapshot};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{Display, Write as _};
use veil_graph::Graph;
use veil_obs::{analyze_events, Recorder};

/// Per-run overrides a campaign (or `--seed`/`--shards` on the CLI)
/// applies on top of the scenario file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOverrides {
    /// Replaces the scenario's master seed.
    pub seed: Option<u64>,
    /// Shard count of the windowed executor (`None` = one; never changes
    /// the outcome).
    pub shards: Option<usize>,
}

/// What an observer-attack audit found; produced by the injected
/// evaluator (see [`run_scenario_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AttackFindings {
    /// Fraction of trust-graph nodes the observers know.
    pub node_fraction: f64,
    /// Fraction of trust-graph edges the observers know.
    pub edge_fraction: f64,
    /// Whether the observer set is a vertex cut of the trust graph.
    pub is_vertex_cut: bool,
}

/// Evaluator for the `[attack]` section: given the trust graph and the
/// attack spec, report what the observers learn. `veil-privacy` provides
/// the canonical implementation (`veil_privacy::evaluate_attack`); the
/// indirection exists because the dependency points the other way.
pub type AttackEval = dyn Fn(&Graph, &AttackSpec) -> AttackFindings + Sync;

/// One graded assertion.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AssertionOutcome {
    /// Assertion key as written in the scenario file.
    pub key: String,
    /// `observed vs bound`, human-readable.
    pub detail: String,
    /// Whether the assertion held.
    pub passed: bool,
}

/// The deterministic verdict of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Seed the run used (after overrides).
    pub seed: u64,
    /// Shard count the run asked for (`None` = unset).
    pub shards: Option<usize>,
    /// Final overlay snapshot at the horizon.
    pub snapshot: OverlaySnapshot,
    /// Coverage of a final flood from the highest-trust-degree online
    /// node (0 when nobody is online).
    pub coverage: f64,
    /// Trace-wide shuffle success rate.
    pub shuffle_success_rate: f64,
    /// Total health alerts in the trace.
    pub alerts_total: u64,
    /// Critical-severity health alerts.
    pub critical_alerts: u64,
    /// Sorted, deduplicated names of detectors that fired.
    pub detectors: Vec<String>,
    /// Observer-audit findings, when the scenario has an `[attack]`
    /// section.
    pub attack: Option<AttackFindings>,
    /// Self-healing reactions by kind, from the trace. Empty (and skipped
    /// in serialized reports, so pre-remediation outcomes keep their
    /// bytes) unless the remediation engine ran.
    #[serde(skip_serializing_if = "BTreeMap::is_empty")]
    pub reaction_counts: BTreeMap<String, u64>,
    /// Periods from the last blackout's end until pseudonym-overlay flood
    /// coverage regained 90% of its pre-blackout mean. Measured only when
    /// the scenario asserts `recovery_time_at_most` (absent otherwise);
    /// the inner `None` means the overlay never recovered by the horizon.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub recovery_time: Option<Option<f64>>,
    /// Every assertion, graded.
    pub checks: Vec<AssertionOutcome>,
    /// Whether all assertions held.
    pub passed: bool,
}

/// A completed run: the verdict plus the raw trace it was graded on.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The graded verdict.
    pub outcome: ScenarioOutcome,
    /// The recorder's JSONL observability trace (feed to `veil obs
    /// analyze` / `diff`): canonical, so the same bytes for every shard
    /// count, and replays to the report the verdict was graded from. The
    /// frozen benchmark package reads this field.
    pub trace_jsonl: String,
}

/// Returns `f()`; `recorder` is unused. There is no process-wide
/// recorder: a simulation records into the one
/// [`Simulation::set_recorder`](crate::simulation::Simulation::set_recorder)
/// attaches, and one attached before the first `run_until` also receives
/// the t = 0 start-up mints.
///
/// Kept only because the frozen benchmark package compiles against this
/// signature (it builds through it, then calls `set_recorder`).
pub fn with_global_recorder<T>(_recorder: &Recorder, f: impl FnOnce() -> T) -> T {
    f()
}

/// Returns [`Recorder::events_jsonl`]: the barrier records every event in
/// canonical order, so the raw trace is the canonical trace — the same
/// bytes for every shard count.
///
/// Kept only because the frozen benchmark package compiles against this
/// signature.
pub fn canonical_trace_jsonl(recorder: &Recorder) -> String {
    recorder.events_jsonl()
}

/// Runs `scenario` with the default overrides and no attack evaluator.
///
/// # Errors
///
/// See [`run_scenario_with`].
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioRun, ScenarioError> {
    run_scenario_with(scenario, RunOverrides::default(), None)
}

/// Validates, lowers, and runs `scenario`, then grades its assertions.
///
/// `attack_eval` must be supplied when the scenario has an `[attack]`
/// section (the CLI passes `veil_privacy::evaluate_attack`).
///
/// The frozen benchmark package compiles against this signature.
///
/// # Errors
///
/// Validation failures, simulation construction errors, a missing attack
/// evaluator, and a recorded event with a non-finite field (`analyzing
/// trace: …` — the one thing about a trace the event types do not rule
/// out; see [`veil_obs::analyze_events`]).
pub fn run_scenario_with(
    scenario: &Scenario,
    overrides: RunOverrides,
    attack_eval: Option<&AttackEval>,
) -> Result<ScenarioRun, ScenarioError> {
    let (outcome, recorder) = run_graded(scenario, overrides, attack_eval)?;
    Ok(ScenarioRun {
        outcome,
        trace_jsonl: recorder.events_jsonl(),
    })
}

/// The run itself: simulates, then grades from the recorder's events —
/// the trace is never read back. Returns the recorder with the verdict: a
/// run keeps its JSONL, a campaign keeps nothing.
fn run_graded(
    scenario: &Scenario,
    overrides: RunOverrides,
    attack_eval: Option<&AttackEval>,
) -> Result<(ScenarioOutcome, Recorder), ScenarioError> {
    scenario.validate()?;
    let lowered = lower(scenario)?;
    let mut params = lowered.params;
    if let Some(seed) = overrides.seed {
        params.seed = seed;
    }
    if let Some(shards) = overrides.shards {
        params.overlay.shards = Some(shards);
    }
    let trust = build_trust_graph(&params)
        .map_err(|e| ScenarioError::new(format!("building trust graph: {e}")))?;

    let recorder = Recorder::full();
    let mut sim = build_simulation(trust.clone(), &params, lowered.alpha)
        .map_err(|e| ScenarioError::new(format!("building simulation: {e}")))?;
    sim.set_recorder(recorder.clone());

    // With a `recovery_time_at_most` assertion the run is stepped: a
    // baseline over up to ten periods before the last blackout, then
    // one-period probes after it ends, the last one on the horizon. The
    // trace stays byte-identical to an unstepped run; the probe grid is
    // fixed, so the measurement is shard-layout-invariant too.
    let horizon = lowered.horizon;
    let recovery_time = scenario
        .assertions
        .recovery_time_at_most
        .and_then(|_| recovery_interval(scenario))
        .map(|outage| {
            let snaps = (outage.0.floor() as usize).clamp(1, 10);
            measure_recovery(&mut sim, &trust, outage, snaps, |t| {
                (t < horizon).then_some((t + 1.0).min(horizon))
            })
        });
    sim.run_until(horizon);

    let snap = snapshot(&sim);
    let coverage = match best_connected_online(&trust, &sim.online_mask()) {
        Some(source) => flood_current_overlay(&sim, source).coverage(),
        None => 0.0,
    };

    let report = analyze_events(recorder.events())
        .map_err(|e| ScenarioError::new(format!("analyzing trace: {e}")))?;

    let attack = match &scenario.attack {
        Some(spec) => match attack_eval {
            Some(eval) => Some(eval(&trust, spec)),
            None => {
                return Err(ScenarioError::new(
                    "scenario has an [attack] section but no attack evaluator was supplied \
                     (run it through the veil CLI, or pass veil_privacy::evaluate_attack)",
                ))
            }
        },
        None => None,
    };

    let alerts_total = report.alerts.len() as u64;
    let critical_alerts = report
        .alerts
        .iter()
        .filter(|a| a.severity == "critical")
        .count() as u64;
    let detectors: Vec<String> = report
        .alerts
        .iter()
        .map(|a| a.detector.clone())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    let mut outcome = ScenarioOutcome {
        scenario: scenario.name.clone(),
        seed: params.seed,
        shards: params.overlay.shards,
        snapshot: snap,
        coverage,
        shuffle_success_rate: report.shuffle_success_rate,
        alerts_total,
        critical_alerts,
        detectors,
        attack,
        reaction_counts: report.reaction_counts,
        recovery_time,
        checks: Vec::new(),
        passed: true,
    };
    grade(scenario, &mut outcome);
    Ok((outcome, recorder))
}

/// Grades one numeric bound (`None` when it is unset). Every bound key is
/// spelled `max_*` or `min_*`, which is its direction; `shown` is the
/// observed value as it reads in the check's detail.
fn bound<T: PartialOrd + Display>(
    key: &str,
    limit: Option<T>,
    observed: T,
    shown: String,
) -> Option<AssertionOutcome> {
    let limit = limit?;
    let (word, passed) = if key.starts_with("max_") {
        ("max", observed <= limit)
    } else {
        ("min", observed >= limit)
    };
    Some(AssertionOutcome {
        key: key.to_string(),
        detail: format!("{shown} vs {word} {limit}"),
        passed,
    })
}

/// Grades every assertion in the scenario against the measured outcome,
/// filling `outcome.checks` and `outcome.passed`.
fn grade(scenario: &Scenario, outcome: &mut ScenarioOutcome) {
    let a = &scenario.assertions;
    let (disconnected, failures) = (
        outcome.snapshot.fraction_disconnected,
        outcome.snapshot.shuffle_failures,
    );
    let (alerts, critical) = (outcome.alerts_total, outcome.critical_alerts);
    let (coverage, success) = (outcome.coverage, outcome.shuffle_success_rate);
    // One row per numeric bound: the assertion (the key as written in
    // files and the field holding its limit), the observed value, and
    // how that value reads in the check's detail.
    macro_rules! bounds {
        ($(($key:ident, $observed:expr, $shown:literal)),+ $(,)?) => {
            [$(bound(stringify!($key), a.$key, $observed, format!($shown))),+]
                .into_iter()
                .flatten()
        };
    }
    let mut checks: Vec<AssertionOutcome> = bounds![
        (
            max_disconnected,
            disconnected,
            "disconnected {disconnected:.4}"
        ),
        (min_coverage, coverage, "coverage {coverage:.4}"),
        (max_alerts, alerts, "{alerts} alerts"),
        (min_alerts, alerts, "{alerts} alerts"),
        (max_critical_alerts, critical, "{critical} critical"),
        (
            min_shuffle_success_rate,
            success,
            "success rate {success:.4}"
        ),
        (max_shuffle_failures, failures, "{failures} failures"),
    ]
    .collect();
    let mut push = |key: &str, detail: String, passed: bool| {
        checks.push(AssertionOutcome {
            key: key.to_string(),
            detail,
            passed,
        });
    };
    for name in &a.require_detectors {
        let fired = outcome.detectors.iter().any(|d| d == name);
        push(
            "require_detectors",
            format!("`{name}` {}", if fired { "fired" } else { "never fired" }),
            fired,
        );
    }
    for name in &a.forbid_detectors {
        let fired = outcome.detectors.iter().any(|d| d == name);
        push(
            "forbid_detectors",
            format!("`{name}` {}", if fired { "fired" } else { "stayed quiet" }),
            !fired,
        );
    }
    if let Some(bound) = a.recovery_time_at_most {
        match outcome.recovery_time {
            Some(Some(t)) => push(
                "recovery_time_at_most",
                format!("recovered {t} period(s) after the outage vs max {bound}"),
                t <= bound,
            ),
            Some(None) => push(
                "recovery_time_at_most",
                format!("never recovered by the horizon vs max {bound}"),
                false,
            ),
            // Unmeasured: validation rejects the assertion without a
            // blackout phase, so this arm is unreachable for validated
            // scenarios — grade it as a failure rather than silence.
            None => push(
                "recovery_time_at_most",
                "no blackout outage was measured".to_string(),
                false,
            ),
        }
    }
    for name in &a.reaction_fired {
        let count = outcome.reaction_counts.get(name).copied().unwrap_or(0);
        push(
            "reaction_fired",
            format!(
                "`{name}` {}",
                if count > 0 {
                    format!("fired {count} time(s)")
                } else {
                    "never fired".to_string()
                }
            ),
            count > 0,
        );
    }
    if let Some(attack) = &outcome.attack {
        let (nodes, edges) = (attack.node_fraction, attack.edge_fraction);
        checks.extend(bounds![
            (
                max_observed_node_fraction,
                nodes,
                "observers know {nodes:.4} of nodes"
            ),
            (
                max_observed_edge_fraction,
                edges,
                "observers know {edges:.4} of edges"
            ),
        ]);
        if a.forbid_vertex_cut {
            checks.push(AssertionOutcome {
                key: "forbid_vertex_cut".to_string(),
                detail: format!(
                    "observer set {} a vertex cut",
                    if attack.is_vertex_cut { "IS" } else { "is not" }
                ),
                passed: !attack.is_vertex_cut,
            });
        }
    }
    outcome.passed = checks.iter().all(|c| c.passed);
    outcome.checks = checks;
}

/// What a campaign sweeps: the cartesian product of seeds and shard
/// counts, run in parallel via `veil-par`.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Seeds to run (the CLI defaults to `scenario.seed .. + N`).
    pub seeds: Vec<u64>,
    /// Shard counts; `None` entries leave `shards` unset.
    pub shard_counts: Vec<Option<usize>>,
    /// Worker threads for the sweep (`None` = all available cores).
    pub parallelism: Option<usize>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            seeds: Vec::new(),
            shard_counts: vec![None],
            parallelism: None,
        }
    }
}

/// All verdicts of a campaign sweep, in grid order (seeds outer, shard
/// counts inner).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Scenario name.
    pub scenario: String,
    /// One verdict per (seed, shards) grid point.
    pub runs: Vec<ScenarioOutcome>,
}

impl CampaignReport {
    /// Whether every run passed every assertion.
    pub fn all_passed(&self) -> bool {
        self.runs.iter().all(|r| r.passed)
    }

    /// Number of passing runs.
    pub fn passed_count(&self) -> usize {
        self.runs.iter().filter(|r| r.passed).count()
    }

    /// JSONL report: one line per run (a serialized [`ScenarioOutcome`])
    /// followed by a summary line. Deterministic — serial and parallel
    /// sweeps emit identical bytes.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for run in &self.runs {
            let line = serde_json::to_string(run).expect("outcome serializes");
            let _ = writeln!(out, "{line}");
        }
        let summary = format!(
            "{{\"campaign\":\"{}\",\"runs\":{},\"passed\":{},\"failed\":{},\"ok\":{}}}",
            self.scenario,
            self.runs.len(),
            self.passed_count(),
            self.runs.len() - self.passed_count(),
            self.all_passed(),
        );
        let _ = writeln!(out, "{summary}");
        out
    }
}

/// Sweeps `scenario` over the campaign grid in parallel, preserving grid
/// order in the report.
///
/// # Errors
///
/// An empty seed list, plus everything [`run_scenario_with`] can return
/// (the first failing grid point wins; assertion *failures* are verdicts,
/// not errors).
pub fn run_campaign(
    scenario: &Scenario,
    spec: &CampaignSpec,
    attack_eval: Option<&AttackEval>,
) -> Result<CampaignReport, ScenarioError> {
    if spec.seeds.is_empty() {
        return Err(ScenarioError::new("campaign needs at least one seed"));
    }
    let shard_counts = if spec.shard_counts.is_empty() {
        vec![None]
    } else {
        spec.shard_counts.clone()
    };
    let mut grid: Vec<RunOverrides> = Vec::new();
    for &seed in &spec.seeds {
        for &shards in &shard_counts {
            grid.push(RunOverrides {
                seed: Some(seed),
                shards,
            });
        }
    }
    let results = veil_par::map(&grid, spec.parallelism, |&overrides| {
        run_graded(scenario, overrides, attack_eval).map(|(outcome, _)| outcome)
    });
    let mut runs = Vec::with_capacity(results.len());
    for result in results {
        runs.push(result?);
    }
    Ok(CampaignReport {
        scenario: scenario.name.clone(),
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::super::schema::Phase;
    use super::*;

    fn quick() -> Scenario {
        Scenario {
            name: "quick".into(),
            nodes: 60,
            horizon: 12.0,
            seed: 7,
            ..Scenario::default()
        }
    }

    #[test]
    fn run_is_deterministic() {
        let s = quick();
        let a = run_scenario(&s).unwrap();
        let b = run_scenario(&s).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.trace_jsonl, b.trace_jsonl);
    }

    #[test]
    fn assertions_grade_pass_and_fail() {
        let mut s = quick();
        s.assertions.min_coverage = Some(0.5);
        s.assertions.max_disconnected = Some(1.0);
        let run = run_scenario(&s).unwrap();
        assert_eq!(run.outcome.checks.len(), 2);
        assert!(run.outcome.checks.iter().any(|c| c.key == "min_coverage"));

        s.assertions.min_coverage = Some(1.1);
        // 1.1 fails range validation; bypass validate by setting an
        // impossible-but-valid bound instead.
        s.assertions.min_coverage = Some(1.0);
        s.assertions.max_disconnected = Some(0.0);
        let run = run_scenario(&s).unwrap();
        // Not asserting failure of a specific check (outcomes depend on
        // dynamics), only that grading fills in a verdict consistently.
        assert_eq!(
            run.outcome.passed,
            run.outcome.checks.iter().all(|c| c.passed)
        );
    }

    #[test]
    fn recovery_assertion_measures_and_grades() {
        let mut s = quick();
        s.horizon = 30.0;
        s.phases.push(Phase::Blackout {
            start: 12.0,
            duration: 6.0,
            fraction: 0.4,
            from: 0.0,
        });
        s.assertions.recovery_time_at_most = Some(30.0);
        let run = run_scenario(&s).unwrap();
        let measured = run.outcome.recovery_time.expect("recovery was measured");
        let check = run
            .outcome
            .checks
            .iter()
            .find(|c| c.key == "recovery_time_at_most")
            .expect("recovery check graded");
        match measured {
            Some(t) => {
                assert!(t > 0.0 && t <= 30.0, "recovery time {t} out of range");
                assert!(check.passed, "{}", check.detail);
            }
            None => assert!(!check.passed, "{}", check.detail),
        }
        // Measurement itself is deterministic.
        assert_eq!(run_scenario(&s).unwrap().outcome, run.outcome);
    }

    #[test]
    fn recovery_probing_never_perturbs_the_trace() {
        // The stepped run (baseline snapshots + probes) must emit the
        // exact bytes of the unstepped run: probing is read-only.
        let mut s = quick();
        s.horizon = 30.0;
        s.phases.push(Phase::Blackout {
            start: 12.0,
            duration: 6.0,
            fraction: 0.4,
            from: 0.0,
        });
        let plain = run_scenario(&s).unwrap();
        s.assertions.recovery_time_at_most = Some(30.0);
        let probed = run_scenario(&s).unwrap();
        assert_eq!(plain.trace_jsonl, probed.trace_jsonl);
        assert_eq!(plain.outcome.snapshot, probed.outcome.snapshot);
        assert_eq!(plain.outcome.coverage, probed.outcome.coverage);
    }

    #[test]
    fn reaction_fired_grades_from_the_trace() {
        // No remediation: the reaction can't fire and the check fails.
        // (Validation would reject this scenario; grade() is exercised
        // directly through the unvalidated field to pin the failure path.)
        let mut s = quick();
        s.health.enabled = true;
        s.assertions.reaction_fired = vec!["rebootstrap".into()];
        let run = run_scenario_with(&s, RunOverrides::default(), None);
        // `run_scenario_with` validates first — remediation off with a
        // reaction_fired assertion is rejected up front.
        assert!(run.is_err());

        s.remediation.enabled = true;
        let run = run_scenario(&s).unwrap();
        let check = run
            .outcome
            .checks
            .iter()
            .find(|c| c.key == "reaction_fired")
            .expect("reaction check graded");
        assert_eq!(
            check.passed,
            run.outcome
                .reaction_counts
                .get("rebootstrap")
                .copied()
                .unwrap_or(0)
                > 0,
            "{}",
            check.detail
        );
    }

    #[test]
    fn attack_without_evaluator_errors() {
        let mut s = quick();
        s.attack = Some(AttackSpec { observers: 3 });
        let err = run_scenario(&s).unwrap_err();
        assert!(err.message.contains("attack evaluator"), "{}", err.message);
    }

    #[test]
    fn campaign_serial_and_parallel_reports_match() {
        let mut s = quick();
        s.phases.push(Phase::Blackout {
            start: 4.0,
            duration: 3.0,
            fraction: 0.3,
            from: 0.0,
        });
        let spec_serial = CampaignSpec {
            seeds: vec![7, 8],
            shard_counts: vec![None, Some(2)],
            parallelism: Some(1),
        };
        let spec_par = CampaignSpec {
            parallelism: Some(4),
            ..spec_serial.clone()
        };
        let serial = run_campaign(&s, &spec_serial, None).unwrap();
        let parallel = run_campaign(&s, &spec_par, None).unwrap();
        assert_eq!(serial.jsonl(), parallel.jsonl());
        assert_eq!(serial.runs.len(), 4);
    }

    #[test]
    fn empty_seed_list_is_an_error() {
        let err = run_campaign(&quick(), &CampaignSpec::default(), None).unwrap_err();
        assert!(err.message.contains("seed"), "{}", err.message);
    }
}
