//! What one run of one workload reports, and the line it prints.

use serde_json::Value;

/// One correctness check of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// `(name, value)`; units come from [`crate::spec`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations and checks attempted; at least 1.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Values that must repeat exactly for a seed (`count.*`, digests),
    /// printed on the line before the result for `run --all` to compare
    /// across runs and across workloads.
    pub exact: Vec<(String, Value)>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.attempted += 1;
        self.failed += u64::from(!passed);
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
    }

    /// Sets a metric, replacing an earlier value of the same name.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn exact(&mut self, name: &str, value: Value) {
        self.exact.push((name.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `1 - failed / attempted`.
    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed`, `metrics`. `declared` is the `(name, unit)` list the run
    /// owes; a metric the run did not set is reported as 0 (a layer that
    /// is not on this workload's path).
    pub fn result_line(&self, declared: &[(&'static str, &'static str)]) -> String {
        let metrics = declared
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("result serializes")
    }

    /// The line before the result: `{"exact": {...}, "checks": [...]}`.
    pub fn info_line(&self) -> String {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Value::Map(vec![
                    ("name".into(), Value::Str(c.name.clone())),
                    ("passed".into(), Value::Bool(c.passed)),
                    ("detail".into(), Value::Str(c.detail.clone())),
                ])
            })
            .collect();
        let line = Value::Map(vec![
            ("exact".into(), Value::Map(self.exact.clone())),
            ("checks".into(), Value::Seq(checks)),
        ]);
        serde_json::to_string(&line).expect("info serializes")
    }

    /// Prints the info and result lines; the process exit code.
    pub fn print(&self, declared: &[(&'static str, &'static str)]) -> std::process::ExitCode {
        for c in self.checks.iter().filter(|c| !c.passed) {
            eprintln!("check failed: {}: {}", c.name, c.detail);
        }
        println!("{}", self.info_line());
        println!("{}", self.result_line(declared));
        if self.correct() {
            std::process::ExitCode::SUCCESS
        } else {
            std::process::ExitCode::FAILURE
        }
    }
}

/// FNV-1a over `bytes`, as 16 hex digits: a short witness of a long
/// serialized snapshot.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}
