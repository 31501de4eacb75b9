//! The gate binary: one workload end to end (`--workload …`), the whole
//! suite (`run --all`), or a comparison of two result sets (`compare`).
//! Drives veil through its top-level API only.

use std::process::ExitCode;
use veil_benchmark::cli::{Flags, RunArgs};
use veil_benchmark::spans::Tracer;
use veil_benchmark::spec::{contract_path, Contract, Kind, END_TO_END};
use veil_benchmark::{compare, heal, net, sim, suite};

const USAGE: &str = "\
usage: veil-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0] [--smoke]
       veil-benchmark run --all [--seed N] [--reps R] [--seconds S] [--smoke]
                      [--layers] [--out FILE] [--layers-out FILE]
       veil-benchmark compare <A.json> <B.json> [--contract BENCHMARK.json]
workloads: ideal_10k ideal_20k faulty_s1 faulty_s2 scenario_heal net_pair";

fn run_one(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["workload", "seed", "seconds", "trace", "smoke"])?;
    let args = RunArgs::from_flags(flags)?;
    if args.trace {
        return Err(
            "--trace 1 is the layer pass: run veil-benchmark-layers (run.sh picks it)".into(),
        );
    }
    let mut tr = Tracer::new(false);
    let outcome = match args.workload.kind(args.smoke) {
        Kind::Sim(spec) => sim::run(spec, args.seed, args.seconds, &mut tr).outcome,
        Kind::Heal(spec) => heal::run(spec, args.seed, args.seconds, 0.0, &mut tr).outcome,
        Kind::Net(spec) => net::run(spec, args.seed, args.seconds, &mut tr).outcome,
    };
    Ok(outcome.print(&END_TO_END))
}

fn main() -> ExitCode {
    let flags = match Flags::parse(std::env::args().skip(1)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let verdict = |clean: bool| {
        if clean {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    let result = match flags.positional.first().map(String::as_str) {
        None => run_one(&flags),
        Some("run") => suite::run_all(&flags).map(verdict),
        Some("compare") => match &flags.positional[1..] {
            [a, b] => flags
                .only(&["contract"])
                .and_then(|()| {
                    let path = flags
                        .get("contract")
                        .map_or_else(contract_path, std::path::PathBuf::from);
                    Contract::load(&path)
                })
                .and_then(|contract| compare::compare(a, b, &contract))
                .map(verdict),
            _ => Err("compare takes two result-set files".into()),
        },
        Some(other) => Err(format!("unknown command `{other}`")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
