//! The frozen shape of the benchmark: workload sizes and metric names.
//!
//! `BENCHMARK.json` at the repository root is the contract — direction and
//! bound of every metric live there and only there. The names and units
//! below are what the two binaries emit; `tests/contract.rs` pins the two
//! lists against each other.

use serde_json::Value;

/// Seconds one run measures when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 8.0;
/// Seconds one `--smoke` run measures.
pub const SMOKE_SECONDS: f64 = 1.0;
/// Seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// Every simulator workload advances in steps of this many shuffle
/// periods — the sharded executor's window, and `run_until` is
/// stepping-invariant, so the steps are free per-interval samples.
pub const STEP: f64 = 0.5;

/// A discrete-event workload: `Simulation::new` + stepped `run_until`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSpec {
    pub nodes: usize,
    /// Simulated time run before the timed region starts: caches full,
    /// per-event cost flat. Counts and digests are taken here, where they
    /// are exact for a seed.
    pub warm: f64,
    /// Simulated time at which measuring stops even if `--seconds` is not
    /// used up, so two executors of different speed cover the same span.
    /// Below 35.6 everywhere: see [`crate::sim::MASTER_SEED`].
    pub horizon: f64,
    /// `None` = ideal zero-latency link, sequential executor. `Some(s)` =
    /// loss 0.05 + Exponential(mean 0.3) latency, sharded executor, `s`
    /// shards on `min(s, nproc)` threads.
    pub faulty_shards: Option<usize>,
}

/// `run_scenario_with` on `scenarios/heal.toml`, repeated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealSpec {
    pub nodes: usize,
    pub shards: usize,
}

/// Two `run_node_with` nodes in this process over loopback TCP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetSpec {
    /// Wall-clock milliseconds per shuffle period: each node starts one
    /// exchange per period on its own seeded timer grid (open loop). The
    /// exchange timeout is three periods, and a shared host stalls a
    /// thread for tens of milliseconds now and then: at 10 ms a period
    /// three runs in ten saw retransmissions and one in twenty abandoned
    /// exchanges; at 40 ms an exchange fails only on a stall of 0.84 s.
    pub period_ms: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Sim(SimSpec),
    Heal(HealSpec),
    Net(NetSpec),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub full: Kind,
    pub smoke: Kind,
}

const fn sim(nodes: usize, warm: f64, horizon: f64, faulty_shards: Option<usize>) -> Kind {
    Kind::Sim(SimSpec {
        nodes,
        warm,
        horizon,
        faulty_shards,
    })
}

/// The six workloads, in the order `run --all` runs them. Sizes were fixed
/// on two shared cores (README "Sizes"); they do not scale with the host.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "ideal_10k",
        full: sim(10_000, 8.0, 32.0, None),
        smoke: sim(500, 4.0, 14.0, None),
    },
    Workload {
        name: "ideal_20k",
        full: sim(20_000, 8.0, 20.0, None),
        smoke: sim(1_000, 4.0, 14.0, None),
    },
    Workload {
        name: "faulty_s1",
        full: sim(10_000, 10.0, 22.0, Some(1)),
        smoke: sim(1_000, 4.0, 14.0, Some(1)),
    },
    Workload {
        name: "faulty_s2",
        full: sim(10_000, 10.0, 22.0, Some(2)),
        smoke: sim(1_000, 4.0, 14.0, Some(2)),
    },
    Workload {
        name: "scenario_heal",
        full: Kind::Heal(HealSpec {
            nodes: 1_500,
            shards: 2,
        }),
        smoke: Kind::Heal(HealSpec {
            nodes: 200,
            shards: 2,
        }),
    },
    Workload {
        name: "net_pair",
        full: Kind::Net(NetSpec { period_ms: 40 }),
        smoke: Kind::Net(NetSpec { period_ms: 10 }),
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn kind(&self, smoke: bool) -> Kind {
        if smoke {
            self.smoke
        } else {
            self.full
        }
    }

    /// Threads that generate load at once.
    pub fn load_threads(&self, smoke: bool) -> usize {
        match self.kind(smoke) {
            // The sharded executor runs one thread per shard per window.
            Kind::Sim(s) => s.faulty_shards.unwrap_or(1),
            Kind::Heal(h) => h.shards,
            Kind::Net(_) => 2,
        }
    }
}

/// End-to-end metrics `(name, unit)`: every workload reports every one,
/// measured with the layer pass off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("us_per_event_p50", "us"),
    ("events_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("overlay_connected", "fraction"),
    ("ok_share", "fraction"),
];

/// Per-layer metrics `(name, unit)` of the layer pass. A workload reports
/// 0 for a layer that is not on its path (the "predicted flat" cells of
/// the README's interaction table).
pub const PER_LAYER: [(&str, &str); 93] = [
    // Kernels on state harvested from the finished workload.
    ("sim.engine.hold_ns", "ns"),
    ("sim.engine.hold_exp_ns", "ns"),
    ("sim.engine.hold_flat_ns", "ns"),
    ("sim.engine.hold_anchored_ns", "ns"),
    ("sim.engine.anchored_share", "fraction"),
    ("core.pseudonym.lookup_ns", "ns"),
    ("core.pseudonym.intern_ns", "ns"),
    ("core.cache.select_offer_ns", "ns"),
    ("core.cache.absorb_ns", "ns"),
    ("core.sampler.offer_ns", "ns"),
    ("core.protocol.build_offer_ns", "ns"),
    ("core.protocol.receive_offer_ns", "ns"),
    ("core.node.pick_link_ns", "ns"),
    ("core.node.links_ns", "ns"),
    ("sim.rng.derive_rng_ns", "ns"),
    ("sim.rng.derive_message_rng_ns", "ns"),
    ("core.transport.message_link_send_ns", "ns"),
    ("par.fork_join_ns", "ns"),
    ("obs.recorder.event_ns", "ns"),
    ("obs.recorder.jsonl_ns_per_event", "ns"),
    ("obs.replay.analyze_ns_per_event", "ns"),
    ("obs.trace_bytes_per_event", "B"),
    ("graph.generators.degree_matched_s", "s"),
    ("core.simulation.new_s", "s"),
    ("graph.metrics.fraction_disconnected_s", "s"),
    ("core.metrics.snapshot_s", "s"),
    ("core.dissemination.flood_s", "s"),
    ("model.flood_coverage", "fraction"),
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.frame.roundtrip_ns", "ns"),
    ("net.wire.encode_pair_ns", "ns"),
    ("net.wire.decode_pair_ns", "ns"),
    ("net.frame.roundtrip_pair_ns", "ns"),
    ("net.sock.dial_handshake_us", "us"),
    ("net.runtime.rtt_p50_us", "us"),
    ("net.runtime.rtt_p90_us", "us"),
    ("net.runtime.rtt_p99_us", "us"),
    ("net.runtime.cpu_us_per_exchange", "us"),
    ("net.runtime.started_share", "fraction"),
    // Where the run's wall clock went.
    ("phase.setup_s", "s"),
    ("phase.ramp_s", "s"),
    ("phase.steady_s", "s"),
    ("phase.check_s", "s"),
    ("phase.kernels_s", "s"),
    ("phase.us_per_event_p80", "us"),
    ("phase.build_s", "s"),
    ("phase.sim_s", "s"),
    ("phase.trace_s", "s"),
    ("phase.analyze_s", "s"),
    ("run.events_per_wall_s", "1/s"),
    ("run.samples", "count"),
    ("trace.us_per_event_p50", "us"),
    ("mem.heap_bytes_per_node", "B"),
    // Kernel time x exact operation count, as a share of the timed region.
    ("est_share.engine", "fraction"),
    ("est_share.node", "fraction"),
    ("est_share.protocol", "fraction"),
    ("est_share.cache", "fraction"),
    ("est_share.sampler", "fraction"),
    ("est_share.pseudonym", "fraction"),
    ("est_share.rng", "fraction"),
    ("est_share.transport", "fraction"),
    ("est_share.par", "fraction"),
    ("est_share.obs", "fraction"),
    ("est_share.wire", "fraction"),
    ("est_share.unattributed", "fraction"),
    // Operation counts of the timed region (the multipliers above).
    ("ops.events", "count"),
    ("ops.shuffles", "count"),
    ("ops.exchanges", "count"),
    ("ops.messages", "count"),
    ("ops.windows", "count"),
    // Exact for a seed: taken where the warm-up ends (simulator
    // workloads), over one whole run (heal, net).
    ("count.events", "count"),
    ("count.shuffles", "count"),
    ("count.responses", "count"),
    ("count.retries", "count"),
    ("count.failures", "count"),
    ("count.dropped", "count"),
    ("count.minted", "count"),
    ("count.arena_len", "count"),
    ("count.windows", "count"),
    ("count.trace_events", "count"),
    ("count.alerts", "count"),
    ("count.remedy_actions", "count"),
    ("count.bytes_out", "count"),
    ("count.frames_out", "count"),
    ("count.timeouts", "count"),
    ("count.dial_failures", "count"),
    ("count.links", "count"),
    ("count.online", "count"),
    ("count.offer_len", "count"),
    ("count.cache_len", "count"),
    ("count.sampled_nodes", "count"),
    ("count.queue_len", "count"),
];

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Where `BENCHMARK.json` sits relative to this package.
pub fn contract_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json")
}

impl Contract {
    /// Reads and parses the contract file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_seq)
                .ok_or_else(|| format!("`{key}` is not a list"))
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry without a `{key}` string"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("`better` is `{other}`")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("`run_seconds` is not a number")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
