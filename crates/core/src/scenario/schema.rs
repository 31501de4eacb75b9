//! Scenario schema: the typed description a scenario file parses into,
//! the key tables that read it from the spanned value tree, and the
//! canonical TOML serializer (`Scenario::to_toml`, the parser's inverse,
//! which the round-trip tests pin) that walks the same tables.
//!
//! Each file key and each `[[phase]]` kind is declared once, below the
//! types: the declaration drives reading, the "unknown key" check and
//! writing, so every "unknown key" / "wrong type" diagnostic can point at
//! the offending character. Semantic rules that involve more than one
//! field (phase ordering, overlapping blackouts, assertion/attack
//! consistency) live in [`super::validate`].

use super::parser::{Spanned, Table, Value};
use super::{ScenarioError, Span};
use crate::health::DETECTOR_NAMES;
use crate::remedy::REACTION_NAMES;
use std::fmt::Write as _;

/// A complete declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (defaults to the file stem when omitted).
    pub name: String,
    /// Free-text description shown by `veil scenario list`.
    pub description: String,
    /// Master seed (campaigns sweep seeds starting here).
    pub seed: u64,
    /// Trust-graph size.
    pub nodes: usize,
    /// Run length in shuffle periods.
    pub horizon: f64,
    /// Node availability `alpha` of the churn model.
    pub availability: f64,
    /// Mean offline time `Toff` in shuffle periods.
    pub mean_offline: f64,
    /// Source social graph and sampling parameters.
    pub graph: GraphSpec,
    /// Overlay protocol overrides.
    pub overlay: OverlaySpec,
    /// Link-layer fault model (ambient loss/latency; episodes come from
    /// phases).
    pub link: LinkSpec,
    /// Online health monitoring.
    pub health: HealthSpec,
    /// Self-healing remediation (requires `[health]` enabled).
    pub remediation: RemedySpec,
    /// Workload phases, in start order.
    pub phases: Vec<Phase>,
    /// Optional observer-attack audit (evaluated by `veil-privacy`).
    pub attack: Option<AttackSpec>,
    /// Pass/fail assertions over the run.
    pub assertions: Assertions,
}

/// Synthetic source-graph model and invitation-sampling parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSpec {
    /// The generator standing in for the Facebook crawl.
    pub model: GraphModel,
    /// Invitation-model sampling parameter `f`.
    pub trust_f: f64,
    /// Source graph has `source_multiplier × nodes` vertices.
    pub source_multiplier: usize,
}

/// Scenario counterpart of `experiment::SourceModel` (the community model
/// is intentionally not exposed: it needs far larger node counts than
/// scenario runs use).
#[derive(Debug, Clone, PartialEq)]
pub enum GraphModel {
    /// Holme–Kim preferential attachment with triad closure.
    HolmeKim {
        /// Edges added per new node.
        attach: usize,
        /// Triangle-closure probability.
        triad: f64,
    },
    /// Holme–Kim-style attachment tuned to a fractional average degree.
    DegreeMatched {
        /// Target average degree of the source graph.
        avg_degree: f64,
        /// Triangle-closure probability.
        triad: f64,
    },
}

/// Overlay-protocol overrides; every field has a scenario-scale default.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlaySpec {
    /// Pseudonym cache capacity.
    pub cache_size: usize,
    /// Pseudonyms exchanged per shuffle (the paper's ℓ).
    pub shuffle_length: usize,
    /// Target overlay links per node.
    pub target_links: usize,
    /// Pseudonym lifetime as a ratio of `mean_offline`; `None` = never
    /// expires (`lifetime_ratio = "inf"` in the file).
    pub lifetime_ratio: Option<f64>,
    /// Shuffle exchange timeout in shuffle periods (faulty link layer).
    pub shuffle_timeout: f64,
    /// Retransmissions before a shuffle is abandoned.
    pub shuffle_retries: u32,
}

/// Ambient link-layer faults. Scripted episodes are derived from phases,
/// not declared here.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Independent per-message drop probability.
    pub loss: f64,
    /// One-way delivery latency.
    pub latency: LatencySpec,
}

/// Scenario counterpart of `veil_sim::fault::LatencyDist`.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySpec {
    /// Distribution family.
    pub dist: LatencyKind,
    /// Mean one-way latency in shuffle periods (0 = instant).
    pub mean: f64,
    /// Pareto shape parameter (ignored by the other families).
    pub shape: f64,
}

/// Latency distribution family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyKind {
    /// Every message takes exactly `mean` periods.
    Constant,
    /// Exponentially distributed.
    Exponential,
    /// Pareto (heavy tail).
    Pareto,
}

/// Online health monitoring switch and window.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSpec {
    /// Whether the rolling-window detectors run (any alert assertion
    /// needs this).
    pub enabled: bool,
    /// Detector window length in shuffle periods.
    pub window: f64,
}

/// Self-healing remediation switch (`[remediation]`); the scenario
/// counterpart of `config::RemedyConfig`. The engine consumes the health
/// monitor's window alerts, so enabling it requires `[health]` enabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemedySpec {
    /// Master switch for the remediation engine and its three reactions.
    pub enabled: bool,
}

/// One workload phase. All node regions are expressed as fractions of the
/// population; `from` offsets the start of the affected region (also a
/// fraction), defaulting to 0.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// The region `[from, from + fraction)` is offline from t = 0 and
    /// joins simultaneously at `at` — a flash crowd.
    FlashCrowd {
        /// Join time.
        at: f64,
        /// Fraction of nodes joining.
        fraction: f64,
        /// Region offset.
        from: f64,
    },
    /// Regional blackout: the region loses power over
    /// `[start, start + duration)` and reconnects together.
    Blackout {
        /// Outage start.
        start: f64,
        /// Outage length.
        duration: f64,
        /// Fraction of nodes affected.
        fraction: f64,
        /// Region offset.
        from: f64,
    },
    /// Network partition along node-index order: the first `fraction` of
    /// nodes cannot exchange messages with the rest while active.
    Partition {
        /// Partition start.
        start: f64,
        /// Partition length.
        duration: f64,
        /// Fraction of nodes on the small side.
        fraction: f64,
    },
    /// Silent crashes: the region neither initiates nor answers shuffles,
    /// with no failure signal — only timeouts reveal it.
    Crash {
        /// Crash start.
        start: f64,
        /// Crash length.
        duration: f64,
        /// Fraction of nodes crashed.
        fraction: f64,
        /// Region offset.
        from: f64,
    },
    /// Diurnal churn: the same "night side" region goes dark for
    /// `duty × period` at the start of each of `waves` periods.
    ChurnWaves {
        /// First wave start.
        start: f64,
        /// Wave period.
        period: f64,
        /// Fraction of each period spent dark.
        duty: f64,
        /// Fraction of nodes in the night-side region.
        fraction: f64,
        /// Number of waves.
        waves: usize,
    },
    /// Creeping loss: a crash region that grows linearly from
    /// `max_fraction / steps` to `max_fraction` over `steps` equal
    /// sub-intervals of `[start, end)`, then recovers.
    CreepingLoss {
        /// Ladder start.
        start: f64,
        /// Ladder end (all nodes recover here).
        end: f64,
        /// Number of growth steps.
        steps: usize,
        /// Crashed fraction during the final step.
        max_fraction: f64,
    },
    /// Eclipse pressure: the victim region (first `victims` fraction of
    /// nodes) is cut off from the honest remainder while active — the
    /// message-omission model of an eclipse on the overlay.
    Eclipse {
        /// Eclipse start.
        start: f64,
        /// Eclipse length.
        duration: f64,
        /// Fraction of nodes eclipsed.
        victims: f64,
    },
}

impl Phase {
    /// The time the phase's first effect begins, used for ordering
    /// validation. A flash crowd's blackout starts at t = 0, but the
    /// phase is *about* the join at `at`, so that is its ordering key.
    pub fn start_key(&self) -> f64 {
        match *self {
            Phase::FlashCrowd { at, .. } => at,
            Phase::Blackout { start, .. }
            | Phase::Partition { start, .. }
            | Phase::Crash { start, .. }
            | Phase::ChurnWaves { start, .. }
            | Phase::CreepingLoss { start, .. }
            | Phase::Eclipse { start, .. } => start,
        }
    }
}

/// Observer-attack audit: the first `observers` nodes collude.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSpec {
    /// Number of colluding internal observers (node ids `0..observers`).
    pub observers: usize,
}

/// Pass/fail assertions evaluated after the run. Every field is optional;
/// an empty table asserts nothing (the run still reports its outcome).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Assertions {
    /// Final fraction of disconnected online overlay nodes must not
    /// exceed this.
    pub max_disconnected: Option<f64>,
    /// Broadcast coverage of a final flood from the highest-degree online
    /// node must reach this.
    pub min_coverage: Option<f64>,
    /// Total health alerts must not exceed this.
    pub max_alerts: Option<u64>,
    /// Total health alerts must reach this (for scenarios that *expect*
    /// degradation to be detected).
    pub min_alerts: Option<u64>,
    /// Critical-severity health alerts must not exceed this.
    pub max_critical_alerts: Option<u64>,
    /// Trace-wide shuffle success rate (completes / starts) must reach
    /// this.
    pub min_shuffle_success_rate: Option<f64>,
    /// Cumulative abandoned shuffles must not exceed this.
    pub max_shuffle_failures: Option<u64>,
    /// Each named detector must fire at least once.
    pub require_detectors: Vec<String>,
    /// None of the named detectors may fire.
    pub forbid_detectors: Vec<String>,
    /// Observer knowledge: fraction of nodes known must not exceed this
    /// (needs `[attack]`).
    pub max_observed_node_fraction: Option<f64>,
    /// Observer knowledge: fraction of edges known must not exceed this
    /// (needs `[attack]`).
    pub max_observed_edge_fraction: Option<f64>,
    /// The observer set must not be a vertex cut of the trust graph
    /// (needs `[attack]`).
    pub forbid_vertex_cut: bool,
    /// Pseudonym-overlay flood coverage must regain 90% of its
    /// pre-blackout mean within this many periods of the last blackout's
    /// end (needs a blackout-style phase that starts after t = 0).
    pub recovery_time_at_most: Option<f64>,
    /// Each named self-healing reaction must fire at least once (needs
    /// `[remediation]` enabled with that reaction on).
    pub reaction_fired: Vec<String>,
}

impl Assertions {
    /// Whether any assertion needs health alerts (and therefore the
    /// monitor enabled).
    pub fn needs_health(&self) -> bool {
        self.max_alerts.is_some()
            || self.min_alerts.is_some()
            || self.max_critical_alerts.is_some()
            || !self.require_detectors.is_empty()
            || !self.forbid_detectors.is_empty()
    }

    /// Whether any assertion needs the `[attack]` audit.
    pub fn needs_attack(&self) -> bool {
        self.max_observed_node_fraction.is_some()
            || self.max_observed_edge_fraction.is_some()
            || self.forbid_vertex_cut
    }
}

impl Default for GraphSpec {
    fn default() -> Self {
        Self {
            // The scaled-down Holme–Kim parameterization used by every
            // smoke-scale experiment in this repo.
            model: GraphModel::HolmeKim {
                attach: 4,
                triad: 0.6,
            },
            trust_f: 0.5,
            source_multiplier: 5,
        }
    }
}

impl Default for OverlaySpec {
    fn default() -> Self {
        Self {
            cache_size: 100,
            shuffle_length: 12,
            target_links: 16,
            lifetime_ratio: Some(3.0),
            shuffle_timeout: 3.0,
            shuffle_retries: 2,
        }
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self {
            loss: 0.0,
            latency: LatencySpec::default(),
        }
    }
}

impl Default for LatencySpec {
    fn default() -> Self {
        Self {
            dist: LatencyKind::Constant,
            mean: 0.0,
            shape: 2.5,
        }
    }
}

impl Default for HealthSpec {
    fn default() -> Self {
        Self {
            enabled: false,
            window: 5.0,
        }
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Self {
            name: "unnamed".to_string(),
            description: String::new(),
            seed: 42,
            nodes: 150,
            horizon: 60.0,
            availability: 0.9,
            mean_offline: 30.0,
            graph: GraphSpec::default(),
            overlay: OverlaySpec::default(),
            link: LinkSpec::default(),
            health: HealthSpec::default(),
            remediation: RemedySpec::default(),
            phases: Vec::new(),
            attack: None,
            assertions: Assertions::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// The value codec
// ---------------------------------------------------------------------------

fn err_at(span: Span, message: String) -> ScenarioError {
    ScenarioError::at(span, message)
}

/// The "wrong type" diagnostic, pointing at the value.
fn expected(v: &Spanned<Value>, what: &str, wanted: &str) -> ScenarioError {
    err_at(
        v.span,
        format!("{what}: expected {wanted}, got {}", v.value.type_name()),
    )
}

/// A type one `key = value` line can hold: how it is read from the
/// spanned value tree and written back canonically.
trait Scalar: Sized {
    /// Reads the value of key `what`; type and range errors point at the
    /// value's span.
    fn read(v: &Spanned<Value>, what: &str) -> Result<Self, ScenarioError>;
    /// The canonical value text, which [`Scalar::read`] parses back to
    /// `self`; `None` omits the line (an unset `Option`).
    fn write(&self) -> Option<String>;
}

impl Scalar for f64 {
    fn read(v: &Spanned<Value>, what: &str) -> Result<Self, ScenarioError> {
        match v.value {
            Value::Float(f) => Ok(f),
            Value::Int(n) => Ok(n as f64),
            _ => Err(expected(v, what, "a number")),
        }
    }

    /// Rust's shortest-representation `{:?}` round-trips through the
    /// parser as a float (`10.0`, not `10`; `inf` for the infinities).
    fn write(&self) -> Option<String> {
        Some(format!("{self:?}"))
    }
}

/// The unsigned integer types: negative and too-large values are range
/// errors, never silent wraps.
macro_rules! uint_scalar {
    ($($t:ty),+) => {$(
        impl Scalar for $t {
            fn read(v: &Spanned<Value>, what: &str) -> Result<Self, ScenarioError> {
                let Value::Int(n) = v.value else {
                    return Err(expected(v, what, "an integer"));
                };
                if n < 0 {
                    return Err(err_at(v.span, format!("{what}: must be non-negative, got {n}")));
                }
                <$t>::try_from(n).map_err(|_| {
                    err_at(v.span, format!("{what}: must be at most {}, got {n}", <$t>::MAX))
                })
            }

            fn write(&self) -> Option<String> {
                Some(self.to_string())
            }
        }
    )+};
}
uint_scalar!(usize, u64, u32);

impl Scalar for bool {
    fn read(v: &Spanned<Value>, what: &str) -> Result<Self, ScenarioError> {
        match v.value {
            Value::Bool(b) => Ok(b),
            _ => Err(expected(v, what, "true or false")),
        }
    }

    fn write(&self) -> Option<String> {
        Some(self.to_string())
    }
}

impl Scalar for String {
    fn read(v: &Spanned<Value>, what: &str) -> Result<Self, ScenarioError> {
        match &v.value {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(expected(v, what, "a string")),
        }
    }

    fn write(&self) -> Option<String> {
        let mut out = String::with_capacity(self.len() + 2);
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                other => out.push(other),
            }
        }
        out.push('"');
        Some(out)
    }
}

/// An optional key: absent in the file ⇔ `None`.
impl<T: Scalar> Scalar for Option<T> {
    fn read(v: &Spanned<Value>, what: &str) -> Result<Self, ScenarioError> {
        T::read(v, what).map(Some)
    }

    fn write(&self) -> Option<String> {
        self.as_ref().and_then(T::write)
    }
}

impl Scalar for LatencyKind {
    fn read(v: &Spanned<Value>, what: &str) -> Result<Self, ScenarioError> {
        match String::read(v, what)?.as_str() {
            "constant" => Ok(LatencyKind::Constant),
            "exponential" | "exp" => Ok(LatencyKind::Exponential),
            "pareto" => Ok(LatencyKind::Pareto),
            other => Err(err_at(
                v.span,
                format!(
                    "{what}: expected \"constant\", \"exponential\" or \"pareto\", got \"{other}\""
                ),
            )),
        }
    }

    fn write(&self) -> Option<String> {
        let name = match self {
            LatencyKind::Constant => "constant",
            LatencyKind::Exponential => "exponential",
            LatencyKind::Pareto => "pareto",
        };
        Some(format!("\"{name}\""))
    }
}

fn as_table<'a>(v: &'a Spanned<Value>, what: &str) -> Result<&'a Table, ScenarioError> {
    match &v.value {
        Value::Table(t) => Ok(t),
        _ => Err(expected(v, what, "a table")),
    }
}

/// Appends the closest allowed spelling to `message` when `got` is
/// plausibly a typo of one; `quote` is the quoting the message uses.
fn suggest(mut message: String, got: &str, allowed: &[&str], quote: char) -> String {
    if let Some(suggestion) = closest(got, allowed) {
        let _ = write!(message, " (did you mean {quote}{suggestion}{quote}?)");
    }
    message
}

/// The allowed key within edit distance 2, if any.
fn closest<'a>(key: &str, allowed: &[&'a str]) -> Option<&'a str> {
    allowed
        .iter()
        .map(|&a| (edit_distance(key, a), a))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, a)| a)
}

/// Levenshtein distance (small strings only).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

// ---------------------------------------------------------------------------
// The key tables: one declaration per file key. Reading, the unknown-key
// check and canonical writing are three walks over the same table, so a
// new key is a struct field, its default, and one line here.
// ---------------------------------------------------------------------------

/// One key of a table whose typed home is `S`.
struct Key<S> {
    /// The key as spelled in files.
    name: &'static str,
    /// Parses the key's value into `S`.
    read: fn(&mut S, &Spanned<Value>) -> Result<(), ScenarioError>,
    /// Appends the key's canonical line(s) for `S`, or nothing when the
    /// key is unset.
    write: fn(&S, &mut String),
}

/// Rejects keys outside `allowed`, pointing at the first offender and
/// suggesting the closest allowed key when one is plausibly a typo.
fn reject_unknown_keys(t: &Table, section: &str, allowed: &[&str]) -> Result<(), ScenarioError> {
    match t
        .entries()
        .iter()
        .find(|(key, _)| !allowed.contains(&key.value.as_str()))
    {
        None => Ok(()),
        Some((key, _)) => {
            let message = format!("unknown key `{}` in {section}", key.value);
            Err(err_at(key.span, suggest(message, &key.value, allowed, '`')))
        }
    }
}

/// Reads table `t` into `into`: undeclared keys are rejected first, then
/// every declared key that is present is read, in declaration order.
fn read_table<S>(
    t: &Table,
    section: &str,
    keys: &[Key<S>],
    into: &mut S,
) -> Result<(), ScenarioError> {
    let names: Vec<&str> = keys.iter().map(|k| k.name).collect();
    reject_unknown_keys(t, section, &names)?;
    for key in keys {
        if let Some(v) = t.get(key.name) {
            (key.read)(into, v)?;
        }
    }
    Ok(())
}

fn write_table<S>(s: &S, keys: &[Key<S>], out: &mut String) {
    for key in keys {
        (key.write)(s, out);
    }
}

fn write_line<T: Scalar>(out: &mut String, name: &str, value: &T) {
    if let Some(text) = value.write() {
        let _ = writeln!(out, "{name} = {text}");
    }
}

/// A scalar key stored in the field of the same name.
macro_rules! key {
    ($field:ident) => {
        Key {
            name: stringify!($field),
            read: |s, v| {
                s.$field = Scalar::read(v, stringify!($field))?;
                Ok(())
            },
            write: |s, out| write_line(out, stringify!($field), &s.$field),
        }
    };
}

/// A sub-table stored in the field of the same name, with its own key
/// table; `$header` is its full `[dotted.path]`.
macro_rules! section {
    ($field:ident, $header:literal, $keys:expr) => {
        Key {
            name: stringify!($field),
            read: |s, v| read_table(as_table(v, $header)?, $header, $keys, &mut s.$field),
            write: |s, out| {
                let _ = writeln!(out, "\n{}", $header);
                write_table(&s.$field, $keys, out);
            },
        }
    };
}

/// A `[graph]` key stored inside the listed `model` variants. Under any
/// other model the key is accepted and ignored, so a file can switch
/// `model` without deleting the other family's tuning.
macro_rules! model_key {
    ($field:ident in $($variant:ident)|+) => {
        Key {
            name: stringify!($field),
            read: |g, v| {
                match &mut g.model {
                    $(GraphModel::$variant { $field, .. })|+ => {
                        *$field = Scalar::read(v, stringify!($field))?;
                    }
                    _ => {}
                }
                Ok(())
            },
            write: |g, out| match &g.model {
                $(GraphModel::$variant { $field, .. })|+ => {
                    write_line(out, stringify!($field), $field);
                }
                _ => {}
            },
        }
    };
}

/// A list of names drawn from the fixed set `$known` (a typo cannot
/// silently never match), written only when non-empty.
macro_rules! names {
    ($field:ident, $noun:literal, $known:expr) => {
        Key {
            name: stringify!($field),
            read: |a, v| {
                a.$field = read_names(v, stringify!($field), $noun, &$known)?;
                Ok(())
            },
            write: |a, out| {
                if !a.$field.is_empty() {
                    let list = a.$field.join("\", \"");
                    let _ = writeln!(out, "{} = [\"{list}\"]", stringify!($field));
                }
            },
        }
    };
}

fn read_names(
    v: &Spanned<Value>,
    key: &str,
    noun: &str,
    known: &[&str],
) -> Result<Vec<String>, ScenarioError> {
    let Value::Array(items) = &v.value else {
        return Err(expected(v, key, &format!("an array of {noun} names")));
    };
    items
        .iter()
        .map(|item| {
            let name = String::read(item, key)?;
            if known.contains(&name.as_str()) {
                Ok(name)
            } else {
                let message = format!("unknown {noun} `{name}`");
                Err(err_at(item.span, suggest(message, &name, known, '`')))
            }
        })
        .collect()
}

const SCENARIO: &[Key<Scenario>] = &[
    key!(name),
    key!(description),
    key!(seed),
    key!(nodes),
    key!(horizon),
    key!(availability),
    key!(mean_offline),
    section!(graph, "[graph]", GRAPH),
    section!(overlay, "[overlay]", OVERLAY),
    section!(link, "[link]", LINK),
    section!(health, "[health]", HEALTH),
    section!(remediation, "[remediation]", REMEDIATION),
    Key {
        name: "phase",
        read: |s, v| {
            let Value::Array(items) = &v.value else {
                return Err(expected(v, "phase", "[[phase]] entries"));
            };
            for item in items {
                s.phases
                    .push(read_phase(as_table(item, "[[phase]]")?, item.span)?);
            }
            Ok(())
        },
        write: |s, out| s.phases.iter().for_each(|p| write_phase(p, out)),
    },
    Key {
        name: "attack",
        read: |s, v| {
            let mut attack = AttackSpec { observers: 1 };
            read_table(as_table(v, "[attack]")?, "[attack]", ATTACK, &mut attack)?;
            s.attack = Some(attack);
            Ok(())
        },
        write: |s, out| {
            if let Some(attack) = &s.attack {
                let _ = writeln!(out, "\n[attack]");
                write_table(attack, ATTACK, out);
            }
        },
    },
    section!(assertions, "[assertions]", ASSERTIONS),
];

#[allow(unreachable_patterns)] // `triad` lives in every model variant
const GRAPH: &[Key<GraphSpec>] = &[
    Key {
        name: "model",
        read: |g, v| {
            g.model = match String::read(v, "model")?.as_str() {
                "holme-kim" | "hk" => GraphModel::HolmeKim {
                    attach: 4,
                    triad: 0.6,
                },
                "degree-matched" | "dm" => GraphModel::DegreeMatched {
                    avg_degree: 8.0,
                    triad: 0.6,
                },
                other => {
                    return Err(err_at(
                        v.span,
                        format!(
                            "model: expected \"holme-kim\" or \"degree-matched\", got \"{other}\""
                        ),
                    ))
                }
            };
            Ok(())
        },
        write: |g, out| {
            let model = match g.model {
                GraphModel::HolmeKim { .. } => "holme-kim",
                GraphModel::DegreeMatched { .. } => "degree-matched",
            };
            let _ = writeln!(out, "model = \"{model}\"");
        },
    },
    model_key!(attach in HolmeKim),
    model_key!(avg_degree in DegreeMatched),
    model_key!(triad in HolmeKim | DegreeMatched),
    key!(trust_f),
    key!(source_multiplier),
];

const OVERLAY: &[Key<OverlaySpec>] = &[
    key!(cache_size),
    key!(shuffle_length),
    key!(target_links),
    // Not the `Option` codec: unset is spelled `"inf"`, not omitted.
    Key {
        name: "lifetime_ratio",
        read: |o, v| {
            o.lifetime_ratio = match &v.value {
                Value::Str(s) if s == "inf" => None,
                Value::Str(s) => {
                    return Err(err_at(
                        v.span,
                        format!("lifetime_ratio: expected a number or \"inf\", got \"{s}\""),
                    ))
                }
                _ => Some(f64::read(v, "lifetime_ratio")?),
            };
            Ok(())
        },
        write: |o, out| {
            let ratio = o
                .lifetime_ratio
                .map_or_else(|| "\"inf\"".to_string(), |r| format!("{r:?}"));
            let _ = writeln!(out, "lifetime_ratio = {ratio}");
        },
    },
    key!(shuffle_timeout),
    key!(shuffle_retries),
];

const LINK: &[Key<LinkSpec>] = &[key!(loss), section!(latency, "[link.latency]", LATENCY)];

const LATENCY: &[Key<LatencySpec>] = &[key!(dist), key!(mean), key!(shape)];

const HEALTH: &[Key<HealthSpec>] = &[key!(enabled), key!(window)];

const REMEDIATION: &[Key<RemedySpec>] = &[key!(enabled)];

const ATTACK: &[Key<AttackSpec>] = &[key!(observers)];

const ASSERTIONS: &[Key<Assertions>] = &[
    key!(max_disconnected),
    key!(min_coverage),
    key!(max_alerts),
    key!(min_alerts),
    key!(max_critical_alerts),
    key!(min_shuffle_success_rate),
    key!(max_shuffle_failures),
    names!(require_detectors, "detector", DETECTOR_NAMES),
    names!(forbid_detectors, "detector", DETECTOR_NAMES),
    key!(max_observed_node_fraction),
    key!(max_observed_edge_fraction),
    key!(forbid_vertex_cut),
    key!(recovery_time_at_most),
    names!(reaction_fired, "reaction", REACTION_NAMES),
];

// ---------------------------------------------------------------------------
// Phase kinds: one declaration per `[[phase]]` kind
// ---------------------------------------------------------------------------

/// Reads one field of a phase: the key's value, else the declared
/// default, else the "missing" diagnostic at the `[[phase]]` header.
fn phase_field<T: Scalar>(
    t: &Table,
    span: Span,
    kind: &str,
    key: &str,
    default: Option<T>,
) -> Result<T, ScenarioError> {
    match (t.get(key), default) {
        (Some(v), _) => T::read(v, key),
        (None, Some(default)) => Ok(default),
        (None, None) => Err(err_at(span, format!("{kind} phase is missing `{key}`"))),
    }
}

/// Declares every phase kind as `"kind" => Variant { field, field =
/// default, … }` — a field without a default is required — and derives
/// the kind names, the reader (with its unknown-key check) and the
/// canonical writer from that one list.
macro_rules! phase_kinds {
    ($($kind:literal => $variant:ident { $($field:ident $(= $default:expr)?),+ },)+) => {
        impl Phase {
            /// Stable lower-case phase name (the `kind` key in files).
            pub fn kind_str(&self) -> &'static str {
                match self {
                    $(Phase::$variant { .. } => $kind,)+
                }
            }
        }

        fn read_phase(t: &Table, span: Span) -> Result<Phase, ScenarioError> {
            let Some(kind) = t.get("kind") else {
                return Err(err_at(span, "phase is missing its `kind`".to_string()));
            };
            match String::read(kind, "kind")?.as_str() {
                $($kind => {
                    let keys = ["kind", $(stringify!($field)),+];
                    reject_unknown_keys(t, concat!("[[phase]] ", $kind), &keys)?;
                    Ok(Phase::$variant {
                        $($field: phase_field(
                            t,
                            span,
                            $kind,
                            stringify!($field),
                            None $(.or(Some($default)))?,
                        )?,)+
                    })
                })+
                other => {
                    let message = format!("unknown phase kind \"{other}\"");
                    Err(err_at(
                        t.key_span("kind").unwrap_or(span),
                        suggest(message, other, &[$($kind),+], '"'),
                    ))
                }
            }
        }

        fn write_phase(phase: &Phase, out: &mut String) {
            let _ = writeln!(out, "\n[[phase]]\nkind = \"{}\"", phase.kind_str());
            match phase {
                $(Phase::$variant { $($field),+ } => {
                    $(write_line(out, stringify!($field), $field);)+
                })+
            }
        }
    };
}

phase_kinds! {
    "flash-crowd" => FlashCrowd { at, fraction, from = 0.0 },
    "blackout" => Blackout { start, duration, fraction, from = 0.0 },
    "partition" => Partition { start, duration, fraction },
    "crash" => Crash { start, duration, fraction, from = 0.0 },
    "churn-waves" => ChurnWaves { start, period, duty = 0.5, fraction, waves },
    "creeping-loss" => CreepingLoss { start, end, steps = 4, max_fraction },
    "eclipse" => Eclipse { start, duration, victims },
}

/// Spans recorded while building, so semantic validation (which runs on
/// the plain [`Scenario`]) can still point diagnostics at the file.
#[derive(Debug, Clone, Default)]
pub struct ScenarioSpans {
    /// Span of each `[[phase]]` header, parallel to `Scenario::phases`.
    pub phases: Vec<Span>,
    /// Span of the `[assertions]` header, when present.
    pub assertions: Option<Span>,
}

/// Builds a [`Scenario`] from a parsed document. `default_name` seeds the
/// scenario name when the file omits one (callers pass the file stem).
///
/// # Errors
///
/// Returns the first structural error (unknown key, wrong type, unknown
/// phase kind or detector) with its source span.
pub fn build_scenario(
    doc: &Table,
    default_name: &str,
) -> Result<(Scenario, ScenarioSpans), ScenarioError> {
    let mut s = Scenario {
        name: default_name.to_string(),
        ..Scenario::default()
    };
    read_table(doc, "the scenario", SCENARIO, &mut s)?;
    let spans = ScenarioSpans {
        phases: match doc.get("phase").map(|v| &v.value) {
            Some(Value::Array(items)) => items.iter().map(|item| item.span).collect(),
            _ => Vec::new(),
        },
        assertions: doc.get("assertions").map(|v| v.span),
    };
    Ok((s, spans))
}

impl Scenario {
    /// Serializes the scenario as canonical TOML: every field is written
    /// explicitly (defaults included), so `parse(to_toml(s)) == s` holds
    /// for any scenario — the round-trip property the conformance and
    /// property tests pin.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        write_table(self, SCENARIO, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse_document;
    use super::*;

    #[test]
    fn defaults_fill_an_empty_document() {
        let doc = parse_document("").unwrap();
        let (s, _) = build_scenario(&doc, "empty").unwrap();
        assert_eq!(s.name, "empty");
        assert_eq!(s.nodes, 150);
        assert_eq!(s.overlay.lifetime_ratio, Some(3.0));
        assert!(s.phases.is_empty());
        assert!(s.attack.is_none());
    }

    #[test]
    fn unknown_key_suggests_closest() {
        let doc = parse_document("[assertions]\nmax_critical_alert = 3\n").unwrap();
        let err = build_scenario(&doc, "x").unwrap_err();
        assert!(
            err.message.contains("did you mean `max_critical_alerts`"),
            "{}",
            err.message
        );
        assert_eq!(err.span.unwrap().line, 2);
    }

    #[test]
    fn unknown_detector_rejected() {
        let doc =
            parse_document("[assertions]\nrequire_detectors = [\"eviction_storms\"]\n").unwrap();
        let err = build_scenario(&doc, "x").unwrap_err();
        assert!(err.message.contains("unknown detector"), "{}", err.message);
        assert!(err.message.contains("eviction_storm"), "{}", err.message);
    }

    #[test]
    fn lifetime_ratio_inf() {
        let doc = parse_document("[overlay]\nlifetime_ratio = \"inf\"\n").unwrap();
        let (s, _) = build_scenario(&doc, "x").unwrap();
        assert_eq!(s.overlay.lifetime_ratio, None);
    }

    #[test]
    fn integers_coerce_to_floats() {
        let doc = parse_document("horizon = 80\navailability = 1\n").unwrap();
        let (s, _) = build_scenario(&doc, "x").unwrap();
        assert_eq!(s.horizon, 80.0);
        assert_eq!(s.availability, 1.0);
    }

    #[test]
    fn u32_keys_reject_out_of_range_integers() {
        for (text, key, got) in [
            (
                "[overlay]\nshuffle_retries = 4294967297\n",
                "shuffle_retries",
                "4294967297",
            ),
            (
                "[overlay]\nshuffle_retries = 4294967296\n",
                "shuffle_retries",
                "4294967296",
            ),
        ] {
            let err = build_scenario(&parse_document(text).unwrap(), "x").unwrap_err();
            assert_eq!(
                err.message,
                format!("{key}: must be at most 4294967295, got {got}")
            );
            assert_eq!(err.span, Some(Span::new(2, key.len() as u32 + 4)));
        }
        let doc = parse_document("[overlay]\nshuffle_retries = 4294967295\n").unwrap();
        let (s, _) = build_scenario(&doc, "x").unwrap();
        assert_eq!(s.overlay.shuffle_retries, u32::MAX);
    }

    #[test]
    fn every_u64_seed_round_trips() {
        for seed in [0, 1 << 63, u64::MAX] {
            let s = Scenario {
                seed,
                ..Scenario::default()
            };
            let doc = parse_document(&s.to_toml()).unwrap();
            let (back, _) = build_scenario(&doc, "x").unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn to_toml_round_trips_defaults_and_phases() {
        let mut s = Scenario {
            name: "demo".into(),
            description: "a \"quoted\" description".into(),
            ..Scenario::default()
        };
        s.phases.push(Phase::Blackout {
            start: 40.0,
            duration: 15.0,
            fraction: 0.5,
            from: 0.0,
        });
        s.phases.push(Phase::ChurnWaves {
            start: 10.0,
            period: 20.0,
            duty: 0.35,
            fraction: 0.3,
            waves: 3,
        });
        s.attack = Some(AttackSpec { observers: 8 });
        s.assertions.min_coverage = Some(0.9);
        s.assertions.require_detectors = vec!["eviction_storm".into()];
        s.assertions.forbid_vertex_cut = true;
        s.assertions.recovery_time_at_most = Some(12.0);
        s.assertions.reaction_fired = vec!["rebootstrap".into(), "backoff".into()];
        s.health.enabled = true;
        s.remediation.enabled = true;
        s.overlay.lifetime_ratio = None;
        let text = s.to_toml();
        let doc = parse_document(&text).unwrap();
        let (back, _) = build_scenario(&doc, "demo").unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn remediation_section_parses_and_suggests_on_typos() {
        let doc = parse_document("[remediation]\nenabled = true\n").unwrap();
        let (s, _) = build_scenario(&doc, "x").unwrap();
        assert!(s.remediation.enabled);

        let doc = parse_document("[remediation]\nenabeld = true\n").unwrap();
        let err = build_scenario(&doc, "x").unwrap_err();
        assert!(
            err.message.contains("did you mean `enabled`"),
            "{}",
            err.message
        );
    }

    /// `[remediation]` is one switch: the per-reaction flags and the
    /// reactions' tuning are constants of the engine, not keys.
    #[test]
    fn removed_remediation_keys_are_unknown() {
        for (key, value) in [
            ("backoff", "false"),
            ("rebootstrap", "false"),
            ("throttle", "false"),
            ("backoff_shuffles", "4"),
            ("rebootstrap_max_offers", "4"),
            ("rebootstrap_cooldown", "6.0"),
            ("throttle_periods", "6.0"),
        ] {
            let text = format!("[remediation]\nenabled = true\n{key} = {value}\n");
            let err = build_scenario(&parse_document(&text).unwrap(), "x").unwrap_err();
            assert!(
                err.message
                    .starts_with(&format!("unknown key `{key}` in [remediation]")),
                "{key}: {}",
                err.message
            );
            assert_eq!(err.span, Some(Span::new(3, 1)), "{key}");
        }
    }

    #[test]
    fn unknown_reaction_rejected() {
        let doc = parse_document("[assertions]\nreaction_fired = [\"rebootstrp\"]\n").unwrap();
        let err = build_scenario(&doc, "x").unwrap_err();
        assert!(err.message.contains("unknown reaction"), "{}", err.message);
        assert!(
            err.message.contains("did you mean `rebootstrap`"),
            "{}",
            err.message
        );
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("", "ab"), 2);
        assert_eq!(
            closest("evictoin_storm", &DETECTOR_NAMES),
            Some("eviction_storm")
        );
        assert_eq!(closest("zzz", &DETECTOR_NAMES), None);
    }
}
