//! veil-net: real multi-process transport for the veil overlay, with the
//! simulator as a behavioral oracle.
//!
//! The crate turns the simulated overlay into a deployable one without
//! forking the protocol: each process hosts one [`veil_core::node::Node`]
//! and drives the existing `veil_core::protocol` shuffle logic over
//! localhost TCP from a loop that wakes on bytes and timers ([`sock`]:
//! the blocking socket calls sit on helper threads), speaking a
//! length-prefixed framed JSON protocol ([`frame`], [`wire`]) that opens
//! with a version/seed handshake. The per-process runtime ([`runtime`])
//! mirrors the simulator's executor semantics — identical timer phases, timeout /
//! retry / eviction behavior, and sender-side drop injection through the
//! same `veil_core::transport` seam — so a fleet run is comparable to a
//! simulation of the same [`scenario::NetScenario`]. The fleet runner
//! ([`fleet`]) spawns the processes, merges their veil-obs traces, runs
//! the simulator oracle, and diffs the two reports within tolerance
//! bands; see DESIGN.md §13 for the wire format and the oracle
//! methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod fleet;
pub mod frame;
pub mod runtime;
pub mod scenario;
pub mod sock;
pub mod telemetry;
pub mod wire;

pub use control::{scrape, ControlServer};
pub use fleet::{
    oracle_trace, read_manifest, render_fleet_table, run_fleet, scrape_fleet, FleetConfig,
    FleetManifest, FleetMetrics, FleetOutcome, NodeMetricsDoc,
};
pub use frame::{encode_frame, FrameDecoder, FrameError, MAX_FRAME_LEN};
pub use runtime::{run_node, run_node_with, NodeOptions, NodeOutput, NodeSummary};
pub use scenario::NetScenario;
pub use sock::IoCounters;
pub use telemetry::{metrics_json, NodeTelemetry, RTT_METRIC};
pub use wire::{
    decode_msg, encode_msg, hello, validate_hello, HandshakeError, WireMsg, NET_MAGIC,
    NET_PROTO_VERSION,
};
