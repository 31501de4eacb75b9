//! Subcommand implementations. Each returns the text to print.

pub mod attack;
pub mod graph;
pub mod net;
pub mod obs;
pub mod scenario;
pub mod simulate;

use veil_core::experiment::ExperimentParams;
use veil_core::scenario::schema::LatencyKind;
use veil_core::scenario::{GraphModel, Scenario};

/// Convenience alias for command results.
pub type CmdResult = Result<String, Box<dyn std::error::Error>>;

/// The world `veil simulate` and `veil attack` describe before their
/// flags: the paper's Table I protocol (`ExperimentParams::default()`)
/// over a Holme–Kim(3, 0.9) source graph of 20 × `nodes` vertices, at
/// α = 0.5 for a 200-period horizon. Not the DSL's scenario-scale
/// `Scenario::default()`; `nodes` has no default (the flag is required).
pub fn base_scenario() -> Scenario {
    let params = ExperimentParams::default();
    let overlay = &params.overlay;
    let mut s = Scenario {
        seed: params.seed,
        horizon: 200.0,
        availability: 0.5,
        mean_offline: params.mean_offline,
        ..Scenario::default()
    };
    s.graph.model = GraphModel::HolmeKim {
        attach: 3,
        triad: 0.9,
    };
    s.graph.trust_f = params.trust_f;
    s.graph.source_multiplier = 20;
    s.overlay.cache_size = overlay.cache_size;
    s.overlay.shuffle_length = overlay.shuffle_length;
    s.overlay.target_links = overlay.target_links;
    s.overlay.lifetime_ratio = params.lifetime_ratio;
    s.overlay.shuffle_timeout = overlay.shuffle_timeout;
    s.overlay.shuffle_retries = overlay.shuffle_retry_budget;
    s.link.latency.dist = LatencyKind::Exponential;
    s.health.window = overlay.health.window;
    s
}

/// Raised by `veil obs diff` when the candidate run regresses beyond the
/// tolerance bands. Carries the rendered comparison; `main` prints it
/// without the usage banner and exits with code 2 so CI can gate on it.
#[derive(Debug)]
pub struct Regression(pub String);

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Regression {}

/// Raised by `veil scenario run/campaign/validate` when a scenario fails
/// its assertions or a library file is invalid. Carries the rendered
/// verdict or diagnostic; `main` prints it without the usage banner and
/// exits with code 3 so CI can gate on scenario regressions separately
/// from usage errors (1) and obs-diff regressions (2).
#[derive(Debug)]
pub struct ScenarioFailure(pub String);

impl std::fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ScenarioFailure {}
