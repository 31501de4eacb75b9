//! `veil-benchmark`: one named, repeatable benchmark for every way veil
//! runs. `README.md` has the glossary and the interaction table;
//! `../../BENCHMARK.json` is the contract (workloads, metrics, bounds).
//!
//! The library half drives veil through its top-level API only
//! (`Simulation::new` / `run_until` / `snapshot`, `run_scenario_with`,
//! `run_node_with`); everything that calls into a single module lives in
//! the `veil-benchmark-layers` binary.

pub mod cli;
pub mod compare;
pub mod heal;
pub mod net;
pub mod report;
pub mod sim;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod sys;
