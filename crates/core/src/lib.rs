//! Robust privacy-preserving overlay maintenance over a social trust graph.
//!
//! This crate reproduces the system of Singh, Urdaneta, van Steen and
//! Vitenberg, *"Robust overlays for privacy-preserving data dissemination
//! over a social graph"* (ICDCS 2012). The idea: bootstrap a communication
//! overlay from a social *trust graph* (friend-to-friend links), then evolve
//! it — without ever disclosing node identities — into a topology that
//! behaves like a random graph: robust under churn and with short paths.
//!
//! # Architecture (paper Figure 2)
//!
//! * **Privacy-preserving link layer** — [`pseudonym`] models the paper's
//!   anonymity + pseudonym services. Pseudonyms are random p-bit strings
//!   with a TTL; the evaluation assumes the services are *ideal* (links work
//!   whenever both endpoints are online), which [`simulation`] reproduces.
//! * **Overlay layer** —
//!   [`cache`] is the Cyclon-style pseudonym cache,
//!   [`sampler`] the Brahms-style min-wise sampler choosing which received
//!   pseudonyms become links, [`protocol`] the shuffle exchange, and
//!   [`node`] the per-node composite state.
//! * **Simulation** — [`simulation::Simulation`] binds the protocol to the
//!   discrete-event engine and churn model from `veil-sim`;
//!   [`metrics`] takes overlay snapshots, [`experiment`] packages the
//!   paper's experiments (Figures 3–9), and [`dissemination`] provides the
//!   flooding broadcast the overlay exists to support — the one
//!   dissemination model every coverage measurement uses.
//!
//! # Quickstart
//!
//! ```
//! use veil_core::config::OverlayConfig;
//! use veil_core::simulation::Simulation;
//! use veil_graph::generators;
//! use veil_sim::churn::ChurnConfig;
//! use veil_sim::rng::{derive_rng, Stream};
//!
//! # fn main() -> Result<(), veil_core::error::CoreError> {
//! let mut rng = derive_rng(42, Stream::Topology);
//! let trust = generators::social_graph(100, 3, &mut rng).unwrap();
//! let cfg = OverlayConfig::default();
//! let churn = ChurnConfig::from_availability(0.5, 30.0);
//! let mut sim = Simulation::new(trust, cfg, churn, 42)?;
//! sim.run_until(20.0);
//! let overlay = sim.overlay_graph();
//! assert!(overlay.edge_count() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod dissemination;
pub mod error;
pub mod experiment;
pub mod health;
pub mod metrics;
pub mod node;
pub mod protocol;
pub mod pseudonym;
pub mod remedy;
pub mod sampler;
pub mod scenario;
mod sim_exec;
pub mod simulation;
pub mod transport;

pub use config::{HealthConfig, LinkLayerConfig, OverlayConfig, RemedyConfig};
pub use error::CoreError;
pub use health::HealthMonitor;
pub use pseudonym::{Pseudonym, PseudonymId, PseudonymService};
pub use remedy::RemedyEngine;
pub use simulation::Simulation;
pub use transport::{SendOutcome, Transport};
