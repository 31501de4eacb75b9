//! Command-line flags shared by the two binaries.

use crate::spec::{Workload, DEFAULT_SEED, RUN_SECONDS, SMOKE_SECONDS};

/// `--name value` pairs, bare `--name` switches and positionals.
#[derive(Debug, Default)]
pub struct Flags {
    pub positional: Vec<String>,
    named: Vec<(String, Option<String>)>,
}

/// Flags that take no value.
const SWITCHES: [&str; 3] = ["all", "smoke", "layers"];

impl Flags {
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut flags = Flags::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(name) if SWITCHES.contains(&name) => flags.named.push((name.into(), None)),
                Some(name) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.named.push((name.into(), Some(value)));
                }
                None => flags.positional.push(arg),
            }
        }
        Ok(flags)
    }

    pub fn has(&self, name: &str) -> bool {
        self.named.iter().any(|(n, _)| n == name)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: `{text}` is not a valid number")),
        }
    }

    /// Rejects a flag this command does not know.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .named
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

/// One run of one workload, as the gate asks for it:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`.
#[derive(Debug)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl RunArgs {
    pub fn from_flags(flags: &Flags) -> Result<Self, String> {
        let name = flags.get("workload").ok_or("--workload is required")?;
        let workload = Workload::named(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        let smoke = flags.has("smoke");
        let seconds = flags.number("seconds", if smoke { SMOKE_SECONDS } else { RUN_SECONDS })?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds must be in (0, 60], got {seconds}"));
        }
        Ok(Self {
            workload,
            seed: flags.number("seed", DEFAULT_SEED)?,
            seconds,
            trace: match flags.get("trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace is 0 or 1, got `{other}`")),
            },
            smoke,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn gate_invocation_parses() {
        let flags = parse(&[
            "--workload",
            "faulty_s2",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        let run = RunArgs::from_flags(&flags).unwrap();
        assert_eq!(run.workload.name, "faulty_s2");
        assert_eq!(
            (run.seed, run.seconds, run.trace, run.smoke),
            (7, 3.0, true, false)
        );
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        assert!(parse(&["--seed"]).is_err());
        let unknown = parse(&["--workload", "nope"]).unwrap();
        assert!(RunArgs::from_flags(&unknown).is_err());
        let bad_seed = parse(&["--workload", "net_pair", "--seed", "x"]).unwrap();
        assert!(RunArgs::from_flags(&bad_seed).is_err());
        let typo = parse(&["--workload", "net_pair", "--sed", "1"]).unwrap();
        assert!(typo.only(&["workload", "seed"]).is_err());
    }
}
