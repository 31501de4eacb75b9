//! Overlay protocol configuration (Table I of the paper).

use crate::error::CoreError;
use crate::sim_exec::mailbox::WINDOW;
use serde::{Deserialize, Serialize};
use veil_sim::fault::FaultConfig;

/// Which link-layer implementation carries shuffle traffic.
///
/// The paper assumes an ideal anonymity/pseudonym service; [`Ideal`] keeps
/// that behaviour bit-for-bit. [`Faulty`] routes every shuffle through the
/// fault-injecting layer described by a [`FaultConfig`]: per-message drops,
/// sampled latency, and scripted episodes. A `Faulty` layer whose config
/// [`FaultConfig::is_trivial`] — no loss, zero latency, no episodes — is
/// the ideal link spelled another way and reproduces its outputs exactly.
/// Nothing else collapses: any latency, constant or sampled, puts messages
/// in flight, and a link with messages in flight does not tell the sender
/// whether the peer is reachable — every shuffle over it is a tracked
/// exchange with a timeout, retries and eviction, even one that never
/// drops anything.
///
/// [`Ideal`]: LinkLayerConfig::Ideal
/// [`Faulty`]: LinkLayerConfig::Faulty
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum LinkLayerConfig {
    /// The paper's ideal service: instant, reliable delivery between
    /// online endpoints, which reports deliverability at send time.
    #[default]
    Ideal,
    /// Fault-injecting layer driven by the given fault model. This is also
    /// how a slow link is spelled: the paper argues the maintenance
    /// protocol tolerates slow mixes — "for a pseudonym lifetime of a few
    /// hours, pseudonym propagation times in the order of minutes are more
    /// than acceptable" (Section III-E5) — and such a mix is a model with
    /// a latency and no loss.
    Faulty(FaultConfig),
}

/// Distance metric used by the pseudonym sampler to compare a pseudonym
/// against a slot's reference value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DistanceMetric {
    /// Absolute numeric difference `|P - R|` — "numerically closer", as the
    /// paper phrases it.
    #[default]
    Absolute,
    /// Hamming-weight of `P XOR R`-style order (compares `P ^ R` values);
    /// an ablation alternative with the same min-wise-sampling property.
    Xor,
}

/// How many sampler slots a node gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SlotPolicy {
    /// The paper's policy: `S(n) = max(min_slots, target_links − deg(n))`,
    /// so all nodes end up with a similar *total* number of overlay links
    /// and trust-graph hubs get few or no extra links.
    #[default]
    DegreeAware,
    /// Every node gets `target_links` slots regardless of its trust degree
    /// (ablation baseline).
    Uniform,
}

/// Configuration of the overlay-maintenance protocol.
///
/// Defaults reproduce Table I of the paper: cache size 400, ℓ = 40
/// pseudonyms per shuffle, 50 target overlay links per node, pseudonym
/// lifetime 90 shuffle periods (3 × the default mean offline time of 30).
///
/// # Examples
///
/// ```
/// use veil_core::config::OverlayConfig;
///
/// let cfg = OverlayConfig::default();
/// assert_eq!(cfg.cache_size, 400);
/// assert_eq!(cfg.shuffle_length, 40);
/// assert_eq!(cfg.target_links, 50);
/// assert_eq!(cfg.pseudonym_lifetime, Some(90.0));
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverlayConfig {
    /// Capacity of the pseudonym cache (Table I: 400).
    pub cache_size: usize,
    /// Maximum number of pseudonyms exchanged during a shuffle, the paper's
    /// ℓ (Table I: 40). One slot always carries the node's own pseudonym.
    pub shuffle_length: usize,
    /// Target number of overlay links per node (Table I: 50). A node's
    /// actual degree may exceed this through links established by peers or
    /// a large number of trusted links.
    pub target_links: usize,
    /// Pseudonym lifetime in shuffle periods; `None` means pseudonyms never
    /// expire (the paper's `r = ∞`). Default: 90 (= 3 × Toff).
    pub pseudonym_lifetime: Option<f64>,
    /// Minimum number of sampler slots even for trust-graph hubs.
    ///
    /// The paper says hubs "do not need the extra random links"; a floor of
    /// zero reproduces that exactly. A small positive floor guarantees every
    /// node keeps some random links. Default: 0.
    pub min_slots: usize,
    /// Slot-budget policy (paper: degree-aware).
    pub slot_policy: SlotPolicy,
    /// Distance metric for the sampler (paper: absolute difference).
    pub distance_metric: DistanceMetric,
    /// Whether the min-wise sampler is used at all; when `false`, nodes link
    /// to the most recently received pseudonyms instead (ablation baseline).
    pub minwise_sampling: bool,
    /// Adaptive shuffle suppression: `Some(k)` makes a node stop
    /// *initiating* shuffles once its pseudonym-link set has been stable
    /// for `k` consecutive shuffle periods, resuming on any change
    /// (expiry, a better sample arriving via a peer's shuffle, rejoining
    /// after an offline period). Implements the paper's observation that
    /// with non-expiring pseudonyms "nodes could easily stop executing the
    /// shuffling protocol after detecting the stabilization" (Section V-B).
    /// `None` (the default, and the paper's measured configuration) keeps
    /// shuffling forever.
    pub stop_after_stable_periods: Option<u32>,
    /// How each node chooses the lifetime of the pseudonyms it mints.
    pub lifetime_policy: LifetimePolicy,
    /// Whether shuffle-partner selection skips links whose peer is offline.
    ///
    /// The paper's accounting ("the average number of messages sent per
    /// shuffle period per node across the whole overlay is 2: one message
    /// for a shuffle request generated by each node, and one message for
    /// the corresponding response") implies every request is answered, i.e.
    /// nodes effectively shuffle with online peers only — the ideal link
    /// layer reports deliverability. `false` makes nodes pick uniformly
    /// over *all* links and lose requests to offline peers (ablation).
    ///
    /// A property of the link that reports deliverability — the ideal one —
    /// only: over a [`LinkLayerConfig::Faulty`] link nodes always pick over
    /// all links, whatever this says.
    pub skip_offline_peers: bool,
    /// Link-layer implementation carrying shuffle traffic (default: the
    /// paper's ideal service).
    pub link: LinkLayerConfig,
    /// How long a shuffle initiator waits for the response before treating
    /// the exchange as failed, in shuffle periods. Only the faulty link
    /// layer uses this; the ideal layer never times out. Doubled on every
    /// retry (exponential backoff). Default: 3.0.
    pub shuffle_timeout: f64,
    /// How many times a timed-out shuffle request is retransmitted before
    /// the initiator gives up and applies Cyclon-style recovery (evicting
    /// the unresponsive pseudonym and counting a `shuffle_failure`).
    /// Default: 2.
    pub shuffle_retry_budget: u32,
    /// Worker threads for the experiment engine's independent sweep points
    /// and metric fan-outs: `None` uses every available core, `Some(1)`
    /// forces serial execution, `Some(k)` caps the pool at `k`.
    ///
    /// Purely an execution knob — every sweep point derives its randomness
    /// from the master seed and its own stream, and results are reduced in
    /// index order, so the output is byte-identical for every value.
    pub parallelism: Option<usize>,
    /// Number of shards the simulation executor partitions the nodes into
    /// (`None` = one).
    ///
    /// `S` contiguous node ranges, each owning its own event engine,
    /// advance in bounded time windows with a deterministic cross-shard
    /// message barrier (see DESIGN.md "Sharded execution"). Every value —
    /// `None`, `Some(1)`, `Some(8)` — produces byte-identical snapshots
    /// and traces, so this is a thread-layout knob, never a
    /// model change. It partitions every configuration that puts messages
    /// in flight (a faulty link layer that injects something); the paper's
    /// ideal zero-latency link exchanges synchronously across two nodes,
    /// always runs on one shard, and ignores this field.
    ///
    /// Skipped during serialization when `None` so existing experiment
    /// artifacts (fig3 JSON etc.) keep their exact bytes; absent keys
    /// deserialize as `None`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub shards: Option<usize>,
    /// Online health monitoring: rolling-window degradation detectors over
    /// the observability event stream (see [`crate::health`]). Disabled by
    /// default; the monitor only ever *reads* events and emits
    /// `HealthAlert` trace events and `health.*` gauges, so enabling it
    /// cannot perturb the simulation (unless [`OverlayConfig::remedy`]
    /// explicitly closes the loop).
    pub health: HealthConfig,
    /// Self-healing remediation: gated reactions to health alerts (see
    /// [`crate::remedy`]). Disabled by default, and skipped during
    /// serialization while at its default so existing experiment artifacts
    /// keep their exact bytes.
    #[serde(default, skip_serializing_if = "RemedyConfig::is_default")]
    pub remedy: RemedyConfig,
}

/// Gated reactions of the self-healing remediation engine
/// ([`crate::remedy::RemedyEngine`]), consuming the window alerts the
/// health monitor raises and feeding deterministic corrective actions back
/// into the overlay.
///
/// Every reaction sits behind its own flag *and* the master [`enabled`]
/// switch; with the engine off the simulation is byte-identical to a build
/// without it. Remediation requires health monitoring
/// ([`HealthConfig::enabled`]) — there is nothing to react to otherwise.
///
/// [`enabled`]: RemedyConfig::enabled
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct RemedyConfig {
    /// Master switch for the remediation engine. `false` (the default)
    /// guarantees byte-identical output to a monitoring-only run.
    pub enabled: bool,
    /// React to `eviction_storm` alerts by suppressing shuffle initiation
    /// for [`RemedyConfig::backoff_shuffles`] periods on every online node,
    /// letting in-flight exchanges drain instead of compounding the storm.
    pub backoff_on_eviction_storm: bool,
    /// React to `starved_nodes` / `isolated_nodes` alerts by re-seeding the
    /// implicated node's sampler with fresh pseudonyms from its online
    /// trusted neighbors (a targeted re-bootstrap along trust edges).
    pub rebootstrap_starved: bool,
    /// React to `indegree_skew` alerts by withholding the over-represented
    /// node's own pseudonym from its shuffle offers for
    /// [`RemedyConfig::throttle_periods`], throttling further in-degree
    /// growth at the hub.
    pub throttle_indegree_skew: bool,
    /// How many of its own shuffle initiations a node skips after an
    /// eviction-storm backoff is applied. The counter decays by one per
    /// skipped shuffle, so the reaction is self-limiting.
    pub backoff_shuffles: u32,
    /// Maximum trusted-neighbor pseudonyms offered to a starved node's
    /// sampler per re-bootstrap.
    pub rebootstrap_max_offers: usize,
    /// Minimum spacing, in shuffle periods, between two re-bootstraps of
    /// the same node (prevents thrashing a persistently isolated node).
    pub rebootstrap_cooldown: f64,
    /// How long, in shuffle periods, a skew-throttled node withholds its
    /// own pseudonym from outgoing shuffle offers.
    pub throttle_periods: f64,
}

impl Default for RemedyConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            backoff_on_eviction_storm: true,
            rebootstrap_starved: true,
            throttle_indegree_skew: true,
            backoff_shuffles: 2,
            rebootstrap_max_offers: 8,
            rebootstrap_cooldown: 10.0,
            throttle_periods: 10.0,
        }
    }
}

impl RemedyConfig {
    /// `true` while every field still holds its default — the serde skip
    /// predicate that keeps the knob off the wire for existing artifacts.
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }

    /// A config with the master switch and every reaction on (the CLI's
    /// `--self-heal`).
    pub fn all_on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Checks internal consistency (validated even when disabled, so a
    /// latent bad config cannot hide until someone switches healing on).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.backoff_shuffles == 0 {
            return Err(CoreError::InvalidConfig {
                field: "remedy.backoff_shuffles",
                reason: "a backoff of zero shuffles would be a no-op reaction".into(),
            });
        }
        if self.rebootstrap_max_offers == 0 {
            return Err(CoreError::InvalidConfig {
                field: "remedy.rebootstrap_max_offers",
                reason: "a re-bootstrap offering zero pseudonyms would be a no-op".into(),
            });
        }
        let positive = [
            ("remedy.rebootstrap_cooldown", self.rebootstrap_cooldown),
            ("remedy.throttle_periods", self.throttle_periods),
        ];
        for (field, v) in positive {
            if !(v.is_finite() && v > 0.0) {
                return Err(CoreError::InvalidConfig {
                    field,
                    reason: format!("must be finite and positive, got {v}"),
                });
            }
        }
        Ok(())
    }
}

/// Thresholds of the rolling-window health detectors in
/// [`crate::health::HealthMonitor`]. All windows and thresholds are in
/// shuffle periods / events per window; see the field docs for each
/// detector's semantics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Master switch. The monitor runs recorder-free too: alerts are
    /// always counted (and feed remediation when that is enabled), while
    /// `HealthAlert` trace events and `health.*` gauges are emitted only if
    /// a recorder happens to be attached.
    pub enabled: bool,
    /// Rolling window length in shuffle periods; a multiple of the
    /// executor's 0.5-period window. Detector counters reset at every
    /// window boundary (boundaries lie on a fixed grid, so results do not
    /// depend on event timing).
    pub window: f64,
    /// `shuffle_failure_burst` fires when `failures / starts` within a
    /// window exceeds this rate.
    pub failure_burst_rate: f64,
    /// Minimum shuffle starts in a window before the failure-burst rate is
    /// meaningful (suppresses noise from nearly idle windows).
    pub failure_burst_min_starts: u64,
    /// `eviction_storm` fires when more than this many Cyclon evictions
    /// happen within one window.
    pub eviction_storm_count: u64,
    /// `pseudonym_expiry_stampede` fires when the fraction of nodes that
    /// purged expired pseudonyms within one window exceeds this value (the
    /// synchronized-expiry transient of the paper's Figure 9).
    pub expiry_stampede_fraction: f64,
    /// `starved_nodes` fires when the fraction of online nodes that have
    /// not completed a shuffle for this many shuffle periods exceeds
    /// [`HealthConfig::starved_fraction`].
    pub starvation_periods: f64,
    /// Fraction of online nodes allowed to be starved before alerting.
    pub starved_fraction: f64,
    /// `indegree_skew` fires when `max_degree / mean_degree` over online
    /// nodes (trusted + pseudonym links) exceeds this ratio — the topology
    /// skew that F2F-overlay analyses flag as the onset of hub formation.
    pub indegree_skew_ratio: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            window: 5.0,
            failure_burst_rate: 0.25,
            failure_burst_min_starts: 20,
            eviction_storm_count: 50,
            expiry_stampede_fraction: 0.5,
            starvation_periods: 15.0,
            starved_fraction: 0.10,
            indegree_skew_ratio: 8.0,
        }
    }
}

impl HealthConfig {
    /// Checks internal consistency (only meaningful values; the config is
    /// validated even when `enabled` is false so a latent bad config cannot
    /// hide until someone switches monitoring on).
    pub fn validate(&self) -> Result<(), CoreError> {
        let positive = [
            ("health.window", self.window),
            ("health.failure_burst_rate", self.failure_burst_rate),
            ("health.starvation_periods", self.starvation_periods),
            ("health.indegree_skew_ratio", self.indegree_skew_ratio),
        ];
        for (field, v) in positive {
            if !(v.is_finite() && v > 0.0) {
                return Err(CoreError::InvalidConfig {
                    field,
                    reason: format!("must be finite and positive, got {v}"),
                });
            }
        }
        // A rotation reads the cells at the barrier that finds it due, and
        // only the execution grid's boundaries are barriers however the
        // caller steps `run_until` (DESIGN §9).
        if (self.window / WINDOW).fract() != 0.0 {
            return Err(CoreError::InvalidConfig {
                field: "health.window",
                reason: format!(
                    "must be a multiple of the {WINDOW}-period execution window, got {}",
                    self.window
                ),
            });
        }
        let fractions = [
            (
                "health.expiry_stampede_fraction",
                self.expiry_stampede_fraction,
            ),
            ("health.starved_fraction", self.starved_fraction),
        ];
        for (field, v) in fractions {
            if !(v.is_finite() && v > 0.0 && v <= 1.0) {
                return Err(CoreError::InvalidConfig {
                    field,
                    reason: format!("must be in (0, 1], got {v}"),
                });
            }
        }
        Ok(())
    }
}

impl Default for OverlayConfig {
    fn default() -> Self {
        Self {
            cache_size: 400,
            shuffle_length: 40,
            target_links: 50,
            pseudonym_lifetime: Some(90.0),
            min_slots: 0,
            slot_policy: SlotPolicy::DegreeAware,
            distance_metric: DistanceMetric::Absolute,
            minwise_sampling: true,
            stop_after_stable_periods: None,
            lifetime_policy: LifetimePolicy::Global,
            skip_offline_peers: true,
            link: LinkLayerConfig::Ideal,
            shuffle_timeout: 3.0,
            shuffle_retry_budget: 2,
            parallelism: None,
            shards: None,
            health: HealthConfig::default(),
            remedy: RemedyConfig::default(),
        }
    }
}

/// Policy for choosing the lifetime of freshly minted pseudonyms.
///
/// The paper treats pseudonym lifetime as "a global system parameter with
/// the same value for all nodes", but notes that "it might be better to let
/// each node adapt the lifetime of its pseudonyms based on the availability
/// characteristics of the other participating nodes" (Section III-C). The
/// adaptive variant implements the node-local version of that idea.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum LifetimePolicy {
    /// Every pseudonym uses [`OverlayConfig::pseudonym_lifetime`].
    #[default]
    Global,
    /// Each node tracks an exponential moving average of its *own* offline
    /// durations and mints pseudonyms that live `multiplier ×` that average
    /// (never below `floor`). Until a node has observed an offline period,
    /// it falls back to the global lifetime.
    Adaptive {
        /// Lifetime as a multiple of the node's mean observed offline time
        /// (the paper's guidance: comfortably above 1, e.g. 3).
        multiplier: f64,
        /// Lower bound on the adaptive lifetime in shuffle periods.
        floor: f64,
    },
}

impl OverlayConfig {
    /// Sets the pseudonym lifetime as a ratio `r` of the mean offline time,
    /// the parameterization the paper sweeps in Figures 7–9
    /// (`r ∈ {1, 3, 9, ∞}`; `None` means `∞`).
    ///
    /// # Panics
    ///
    /// Panics if `r` is not finite and positive, or `mean_offline <= 0`.
    pub fn with_lifetime_ratio(mut self, r: Option<f64>, mean_offline: f64) -> Self {
        assert!(
            mean_offline.is_finite() && mean_offline > 0.0,
            "mean offline time must be positive"
        );
        self.pseudonym_lifetime = r.map(|r| {
            assert!(r.is_finite() && r > 0.0, "lifetime ratio must be positive");
            r * mean_offline
        });
        self
    }

    /// Number of sampler slots for a node with trust degree `trust_degree`.
    pub fn slots_for_degree(&self, trust_degree: usize) -> usize {
        match self.slot_policy {
            SlotPolicy::DegreeAware => self
                .target_links
                .saturating_sub(trust_degree)
                .max(self.min_slots),
            SlotPolicy::Uniform => self.target_links.max(self.min_slots),
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when any field is out of range
    /// (zero cache, zero shuffle length, non-positive lifetime, or a
    /// shuffle length exceeding cache capacity plus one).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.cache_size == 0 {
            return Err(CoreError::InvalidConfig {
                field: "cache_size",
                reason: "cache must hold at least one pseudonym".into(),
            });
        }
        if self.shuffle_length == 0 {
            return Err(CoreError::InvalidConfig {
                field: "shuffle_length",
                reason: "a shuffle must exchange at least one pseudonym".into(),
            });
        }
        // `- 1`, not `cache_size + 1`: a file can ask for `usize::MAX`.
        if self.shuffle_length - 1 > self.cache_size {
            return Err(CoreError::InvalidConfig {
                field: "shuffle_length",
                reason: format!(
                    "cannot send {} pseudonyms from a cache of {} plus own pseudonym",
                    self.shuffle_length, self.cache_size
                ),
            });
        }
        if self.target_links == 0 {
            return Err(CoreError::InvalidConfig {
                field: "target_links",
                reason: "target link count must be positive".into(),
            });
        }
        if let Some(l) = self.pseudonym_lifetime {
            if !(l.is_finite() && l > 0.0) {
                return Err(CoreError::InvalidConfig {
                    field: "pseudonym_lifetime",
                    reason: format!("lifetime must be positive and finite, got {l}"),
                });
            }
        }
        if !(self.shuffle_timeout.is_finite() && self.shuffle_timeout > 0.0) {
            return Err(CoreError::InvalidConfig {
                field: "shuffle_timeout",
                reason: format!(
                    "timeout must be finite and positive, got {}",
                    self.shuffle_timeout
                ),
            });
        }
        if let LinkLayerConfig::Faulty(fault) = &self.link {
            if let Err(reason) = fault.validate() {
                return Err(CoreError::InvalidConfig {
                    field: "link",
                    reason,
                });
            }
        }
        if self.shards == Some(0) {
            return Err(CoreError::InvalidConfig {
                field: "shards",
                reason: "shard count must be at least 1 (or None for unsharded)".into(),
            });
        }
        if self.stop_after_stable_periods == Some(0) {
            return Err(CoreError::InvalidConfig {
                field: "stop_after_stable_periods",
                reason: "stability threshold of zero would suppress all shuffling".into(),
            });
        }
        self.health.validate()?;
        self.remedy.validate()?;
        if self.remedy.enabled && !self.health.enabled {
            return Err(CoreError::InvalidConfig {
                field: "remedy.enabled",
                reason: "self-healing requires health monitoring (health.enabled = true); \
                         there are no alerts to react to otherwise"
                    .into(),
            });
        }
        if let LifetimePolicy::Adaptive { multiplier, floor } = self.lifetime_policy {
            if !(multiplier.is_finite() && multiplier > 0.0) {
                return Err(CoreError::InvalidConfig {
                    field: "lifetime_policy",
                    reason: format!("adaptive multiplier must be positive, got {multiplier}"),
                });
            }
            if !(floor.is_finite() && floor > 0.0) {
                return Err(CoreError::InvalidConfig {
                    field: "lifetime_policy",
                    reason: format!("adaptive floor must be positive, got {floor}"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_one() {
        let cfg = OverlayConfig::default();
        assert_eq!(cfg.cache_size, 400);
        assert_eq!(cfg.shuffle_length, 40);
        assert_eq!(cfg.target_links, 50);
        assert_eq!(cfg.pseudonym_lifetime, Some(90.0));
        assert_eq!(cfg.slot_policy, SlotPolicy::DegreeAware);
        assert_eq!(cfg.distance_metric, DistanceMetric::Absolute);
        assert!(cfg.minwise_sampling);
        cfg.validate().unwrap();
    }

    #[test]
    fn lifetime_ratio_parameterization() {
        let toff = 30.0;
        let r3 = OverlayConfig::default().with_lifetime_ratio(Some(3.0), toff);
        assert_eq!(r3.pseudonym_lifetime, Some(90.0));
        let r1 = OverlayConfig::default().with_lifetime_ratio(Some(1.0), toff);
        assert_eq!(r1.pseudonym_lifetime, Some(30.0));
        let inf = OverlayConfig::default().with_lifetime_ratio(None, toff);
        assert_eq!(inf.pseudonym_lifetime, None);
    }

    #[test]
    fn degree_aware_slots() {
        let cfg = OverlayConfig::default();
        assert_eq!(cfg.slots_for_degree(0), 50);
        assert_eq!(cfg.slots_for_degree(10), 40);
        assert_eq!(cfg.slots_for_degree(50), 0, "hubs get no extra links");
        assert_eq!(cfg.slots_for_degree(200), 0);
    }

    #[test]
    fn uniform_slots_ignore_degree() {
        let cfg = OverlayConfig {
            slot_policy: SlotPolicy::Uniform,
            ..OverlayConfig::default()
        };
        assert_eq!(cfg.slots_for_degree(0), 50);
        assert_eq!(cfg.slots_for_degree(200), 50);
    }

    #[test]
    fn min_slots_floor() {
        let cfg = OverlayConfig {
            min_slots: 5,
            ..OverlayConfig::default()
        };
        assert_eq!(cfg.slots_for_degree(200), 5);
    }

    #[test]
    fn validation_rejects_degenerate_values() {
        let mut cfg = OverlayConfig {
            cache_size: 0,
            ..OverlayConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg = OverlayConfig {
            shuffle_length: 0,
            ..OverlayConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg = OverlayConfig {
            cache_size: 10,
            shuffle_length: 12,
            ..OverlayConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.shuffle_length = 11;
        cfg.validate().unwrap();
        cfg.cache_size = usize::MAX;
        cfg.validate().unwrap();
        cfg = OverlayConfig {
            target_links: 0,
            ..OverlayConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg = OverlayConfig {
            pseudonym_lifetime: Some(0.0),
            ..OverlayConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let cfg = OverlayConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: OverlayConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn faulty_link_serde_round_trip() {
        let cfg = OverlayConfig {
            link: LinkLayerConfig::Faulty(FaultConfig::with_loss(0.1)),
            ..OverlayConfig::default()
        };
        cfg.validate().unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: OverlayConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn link_layer_validation() {
        let bad_timeout = OverlayConfig {
            shuffle_timeout: 0.0,
            ..OverlayConfig::default()
        };
        assert!(bad_timeout.validate().is_err());
        let bad_fault = OverlayConfig {
            link: LinkLayerConfig::Faulty(FaultConfig {
                drop_probability: 2.0,
                ..FaultConfig::none()
            }),
            ..OverlayConfig::default()
        };
        assert!(bad_fault.validate().is_err());
        let ok = OverlayConfig {
            link: LinkLayerConfig::Faulty(FaultConfig::with_loss(0.2)),
            shuffle_timeout: 1.5,
            shuffle_retry_budget: 3,
            ..OverlayConfig::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn stable_stop_zero_is_rejected() {
        let cfg = OverlayConfig {
            stop_after_stable_periods: Some(0),
            ..OverlayConfig::default()
        };
        assert!(cfg.validate().is_err());
        let ok = OverlayConfig {
            stop_after_stable_periods: Some(5),
            ..OverlayConfig::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn health_config_validation() {
        let defaults = HealthConfig::default();
        assert!(!defaults.enabled, "monitoring is opt-in");
        defaults.validate().unwrap();
        let bad_window = OverlayConfig {
            health: HealthConfig {
                window: 0.0,
                ..HealthConfig::default()
            },
            ..OverlayConfig::default()
        };
        assert!(bad_window.validate().is_err());
        let bad_fraction = OverlayConfig {
            health: HealthConfig {
                starved_fraction: 1.5,
                ..HealthConfig::default()
            },
            ..OverlayConfig::default()
        };
        assert!(bad_fraction.validate().is_err());
        let enabled = OverlayConfig {
            health: HealthConfig {
                enabled: true,
                ..HealthConfig::default()
            },
            ..OverlayConfig::default()
        };
        enabled.validate().unwrap();
        let json = serde_json::to_string(&enabled).unwrap();
        let back: OverlayConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(enabled, back);
    }

    #[test]
    fn shards_knob_validates_and_stays_off_the_wire() {
        let zero = OverlayConfig {
            shards: Some(0),
            ..OverlayConfig::default()
        };
        assert!(zero.validate().is_err());
        let sharded = OverlayConfig {
            shards: Some(8),
            ..OverlayConfig::default()
        };
        sharded.validate().unwrap();
        // `None` is skipped entirely: the default config serializes to the
        // exact same bytes as before the knob existed, which is what keeps
        // committed experiment artifacts (fig3 JSON) byte-stable.
        let json = serde_json::to_string(&OverlayConfig::default()).unwrap();
        assert!(!json.contains("shards"), "{json}");
        // A pre-knob document (no `shards` key) deserializes to `None`.
        let back: OverlayConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shards, None);
        // And `Some` round-trips.
        let json = serde_json::to_string(&sharded).unwrap();
        assert!(json.contains("\"shards\""), "{json}");
        let back: OverlayConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sharded);
    }

    #[test]
    fn remedy_knob_validates_and_stays_off_the_wire() {
        // Healing without monitoring has nothing to react to.
        let no_health = OverlayConfig {
            remedy: RemedyConfig::all_on(),
            ..OverlayConfig::default()
        };
        assert!(no_health.validate().is_err());
        let healed = OverlayConfig {
            health: HealthConfig {
                enabled: true,
                ..HealthConfig::default()
            },
            remedy: RemedyConfig::all_on(),
            ..OverlayConfig::default()
        };
        healed.validate().unwrap();
        // Degenerate tuning is rejected even while disabled.
        for bad in [
            RemedyConfig {
                backoff_shuffles: 0,
                ..RemedyConfig::default()
            },
            RemedyConfig {
                rebootstrap_max_offers: 0,
                ..RemedyConfig::default()
            },
            RemedyConfig {
                rebootstrap_cooldown: 0.0,
                ..RemedyConfig::default()
            },
            RemedyConfig {
                throttle_periods: f64::NAN,
                ..RemedyConfig::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
        // The default is skipped entirely: the default config serializes to
        // the exact same bytes as before the knob existed, keeping committed
        // experiment artifacts byte-stable.
        let json = serde_json::to_string(&OverlayConfig::default()).unwrap();
        assert!(!json.contains("remedy"), "{json}");
        // A pre-knob document (no `remedy` key) deserializes to the default.
        let back: OverlayConfig = serde_json::from_str(&json).unwrap();
        assert!(back.remedy.is_default());
        // And a non-default config round-trips.
        let json = serde_json::to_string(&healed).unwrap();
        assert!(json.contains("\"remedy\""), "{json}");
        let back: OverlayConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, healed);
    }

    #[test]
    fn adaptive_lifetime_validation() {
        let bad_mult = OverlayConfig {
            lifetime_policy: LifetimePolicy::Adaptive {
                multiplier: 0.0,
                floor: 10.0,
            },
            ..OverlayConfig::default()
        };
        assert!(bad_mult.validate().is_err());
        let bad_floor = OverlayConfig {
            lifetime_policy: LifetimePolicy::Adaptive {
                multiplier: 3.0,
                floor: -1.0,
            },
            ..OverlayConfig::default()
        };
        assert!(bad_floor.validate().is_err());
        let ok = OverlayConfig {
            lifetime_policy: LifetimePolicy::Adaptive {
                multiplier: 3.0,
                floor: 10.0,
            },
            ..OverlayConfig::default()
        };
        ok.validate().unwrap();
    }
}
