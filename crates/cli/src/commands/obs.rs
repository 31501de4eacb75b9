//! `veil obs` — inspect, validate, analyze and diff observability
//! artifacts produced by `veil simulate --trace-out` (or
//! `veil scenario run --trace-out`).

use super::{CmdResult, Regression};
use crate::args::Args;
use std::fmt::Write as _;
use std::io::{BufReader, Read as _};
use veil_obs::{diff_reports, DiffConfig, EventKind, TraceEvent, TraceReport};

/// Opens a trace file for buffered line-at-a-time reading. Validation and
/// analysis stream through this reader instead of `read_to_string`, so a
/// million-node trace (gigabytes of JSONL) never has to fit in memory.
fn open_trace(path: &str) -> Result<BufReader<std::fs::File>, String> {
    std::fs::File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("cannot open {path:?}: {e}"))
}

/// `veil obs validate FILE` — check a JSONL trace file against the event
/// schema, reporting the number of valid events or the first offending
/// line. Streams the file line by line; peak memory is one event.
pub fn validate(args: &Args) -> CmdResult {
    args.check_known(&[])?;
    let Some(path) = args.positional(2) else {
        return Err("obs validate requires a trace file argument".into());
    };
    let count =
        veil_obs::validate_events_reader(open_trace(path)?).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!("{path}: {count} events, all valid"))
}

/// Loads a positional argument as a [`TraceReport`]: either a `.json`
/// analysis report written by `obs analyze --out`, or a raw `.jsonl` trace
/// which is analyzed on the fly.
///
/// A saved report (or a trace header) announcing a different
/// `veil_trace_version` than this build is rejected with an error naming
/// the version gap — never silently analyzed or diffed across schema
/// generations.
fn load_report(path: &str) -> Result<TraceReport, String> {
    // Sniff the first line: a JSONL trace opens with the version header
    // (or, for header-less legacy traces, a schema-valid event), which the
    // trace decoder accepts, while a saved report is one pretty-printed
    // JSON document. Traces — the files that can reach gigabytes — are
    // then streamed line by line; only a report, which is always small, is
    // read whole.
    let mut first = String::new();
    std::io::BufRead::read_line(&mut open_trace(path)?, &mut first)
        .map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let is_trace = veil_obs::TraceDecoder::default().decode(&first).is_ok();
    if is_trace {
        return veil_obs::analyze_trace_reader(open_trace(path)?)
            .map_err(|e| format!("{path}: {e}"));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    if let Ok(report) = serde_json::from_str::<TraceReport>(&text) {
        if report.schema_version != veil_obs::TRACE_SCHEMA_VERSION {
            return Err(format!(
                "{path}: unsupported trace version {} (this build reads version {}); \
                 re-record the trace with a matching build",
                report.schema_version,
                veil_obs::TRACE_SCHEMA_VERSION
            ));
        }
        return Ok(report);
    }
    veil_obs::analyze_trace_reader(text.as_bytes()).map_err(|e| format!("{path}: {e}"))
}

/// `veil obs analyze FILE [--json] [--out FILE]` — replay a JSONL trace
/// into per-round overlay state and report derived health series: shuffle
/// success rate, per-round drop breakdown, the alert timeline and
/// time-to-recover after blackouts. `--out` saves the machine-readable
/// report (the format `obs diff` consumes) alongside the printed text.
/// The trace is streamed line by line: only decoded events are buffered,
/// never the raw JSONL text.
pub fn analyze(args: &Args) -> CmdResult {
    args.check_known(&["json", "out"])?;
    let Some(path) = args.positional(2) else {
        return Err("obs analyze requires a trace file argument".into());
    };
    let report =
        veil_obs::analyze_trace_reader(open_trace(path)?).map_err(|e| format!("{path}: {e}"))?;
    let mut out = if args.has("json") {
        serde_json::to_string_pretty(&report)?
    } else {
        report.render_text().trim_end().to_string()
    };
    if let Some(dest) = args.flag("out") {
        std::fs::write(dest, serde_json::to_string_pretty(&report)?)
            .map_err(|e| format!("cannot write {dest:?}: {e}"))?;
        if !args.has("json") {
            write!(out, "\n\nreport written to {dest}")?;
        }
    }
    Ok(out)
}

/// `veil obs diff BASELINE CANDIDATE [--rel-tolerance F] [--abs-tolerance F]
/// [--rate-tolerance F] [--json]` — compare two runs (traces or saved
/// analysis reports) under tolerance bands. Worsened metrics beyond the
/// bands are regressions: the command prints the comparison and exits
/// with code 2, which is what lets CI gate on overlay health.
pub fn diff(args: &Args) -> CmdResult {
    args.check_known(&["rel-tolerance", "abs-tolerance", "rate-tolerance", "json"])?;
    let (Some(base_path), Some(cand_path)) = (args.positional(2), args.positional(3)) else {
        return Err("obs diff requires BASELINE and CANDIDATE file arguments".into());
    };
    let cfg = DiffConfig {
        rel_tolerance: args.get_or(
            "rel-tolerance",
            DiffConfig::default().rel_tolerance,
            "float",
        )?,
        abs_tolerance: args.get_or(
            "abs-tolerance",
            DiffConfig::default().abs_tolerance,
            "float",
        )?,
        rate_tolerance: args.get_or(
            "rate-tolerance",
            DiffConfig::default().rate_tolerance,
            "float",
        )?,
    };
    // `load_report` refuses any version but this build's, so the two
    // reports share a schema.
    let baseline = load_report(base_path)?;
    let candidate = load_report(cand_path)?;
    let diff = diff_reports(&baseline, &candidate, cfg);
    let rendered = if args.has("json") {
        serde_json::to_string_pretty(&diff)?
    } else {
        format!(
            "baseline:  {base_path}\ncandidate: {cand_path}\n\n{}",
            diff.render_text().trim_end()
        )
    };
    if diff.passes() {
        Ok(rendered)
    } else {
        Err(Box::new(Regression(rendered)))
    }
}

/// `veil obs merge --out FILE INPUT... [--chrome-trace FILE]` — merge
/// per-process JSONL traces (e.g. the `node-*.jsonl` files a `veil net
/// run` fleet leaves behind) into one canonical trace: every input is
/// renumbered onto its own recording-thread id and the result is sorted
/// by `(t, tid, seq)`. All inputs must carry this build's trace version.
/// `--chrome-trace` additionally correlates the request/response events
/// of every shuffle exchange across processes and writes the stitched
/// timeline as Chrome `trace_event` JSON (one track per node, flow
/// arrows for cross-process contributions); it loads in `about:tracing`
/// or Perfetto.
pub fn merge(args: &Args) -> CmdResult {
    args.check_known(&["out", "chrome-trace"])?;
    let inputs: Vec<&str> = args.positionals()[2..].iter().map(String::as_str).collect();
    if inputs.is_empty() {
        return Err("obs merge requires at least one input trace file".into());
    }
    let Some(out_path) = args.flag("out") else {
        return Err("obs merge requires --out FILE for the merged trace".into());
    };
    let texts: Vec<(String, String)> = inputs
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
            Ok((path.to_string(), text))
        })
        .collect::<Result<_, String>>()?;
    let refs: Vec<(&str, &str)> = texts
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    let merged = veil_obs::merge_traces(&refs)?;
    std::fs::write(out_path, &merged).map_err(|e| format!("cannot write {out_path:?}: {e}"))?;
    let events = merged.lines().count().saturating_sub(1);
    let mut rendered = format!(
        "merged {} trace(s), {events} event(s) -> {out_path}",
        inputs.len()
    );
    if let Some(chrome_path) = args.flag("chrome-trace") {
        let chrome = veil_obs::exchange_chrome_trace(&merged)?;
        std::fs::write(chrome_path, &chrome)
            .map_err(|e| format!("cannot write {chrome_path:?}: {e}"))?;
        write!(
            rendered,
            "\nexchange timeline (Chrome trace_event) -> {chrome_path}"
        )?;
    }
    Ok(rendered)
}

/// Formats one trace event for `obs tail`.
fn format_event(ev: &TraceEvent) -> String {
    match &ev.kind {
        EventKind::HealthAlert {
            detector,
            severity,
            value,
            threshold,
        } => format!(
            "[t={:>8.1}] {severity:>8} {detector}: value {value:.3} vs threshold {threshold:.3}",
            ev.t
        ),
        other => {
            let node = match ev.node {
                Some(v) => format!("node {v}"),
                None => "-".to_string(),
            };
            format!("[t={:>8.1}] {:>8} {}", ev.t, node, other.name())
        }
    }
}

/// `veil obs tail FILE [--all] [--no-follow] [--poll-ms N] [--timeout-s T]`
/// — follow a growing trace file and print `HealthAlert` events as they
/// are appended (every event with `--all`). `--no-follow` drains what is
/// already there and exits; `--timeout-s` bounds a follow. A line `obs
/// validate` refuses stops the follow with the same error.
pub fn tail(args: &Args) -> CmdResult {
    args.check_known(&["all", "no-follow", "poll-ms", "timeout-s"])?;
    let Some(path) = args.positional(2) else {
        return Err("obs tail requires a trace file argument".into());
    };
    let all = args.has("all");
    let follow = !args.has("no-follow");
    let poll_ms: u64 = args.get_or("poll-ms", 200, "integer")?;
    let timeout_s: f64 = args.get_or("timeout-s", 0.0, "float (0 = unbounded)")?;
    let started = std::time::Instant::now();
    let mut follower = TraceFollower::open(path)?;
    let mut printed = 0u64;
    let mut scanned = 0u64;
    loop {
        follower.poll(|ev| {
            scanned += 1;
            if all || matches!(ev.kind, EventKind::HealthAlert { .. }) {
                println!("{}", format_event(&ev));
                printed += 1;
            }
        })?;
        if !follow {
            break;
        }
        if timeout_s > 0.0 && started.elapsed().as_secs_f64() >= timeout_s {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(10)));
    }
    Ok(format!(
        "tail: printed {printed} of {scanned} event(s) from {path}"
    ))
}

/// Reads the events appended to a growing trace file, poll by poll. The
/// file stays open, so each poll reads only the bytes written since the
/// last one, a chunk at a time; a partially written last line is carried
/// over until its newline arrives.
struct TraceFollower {
    path: String,
    file: std::fs::File,
    pending: Vec<u8>,
    decoder: veil_obs::TraceDecoder,
}

impl TraceFollower {
    /// Bytes read per step, so a large backlog is never held whole.
    const CHUNK: u64 = 1 << 20;

    fn open(path: &str) -> Result<Self, String> {
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
        Ok(Self {
            path: path.to_string(),
            file,
            pending: Vec::new(),
            decoder: veil_obs::TraceDecoder::default(),
        })
    }

    /// Hands `each` the events on the lines completed since the last poll.
    fn poll(&mut self, mut each: impl FnMut(TraceEvent)) -> Result<(), String> {
        let path = &self.path;
        loop {
            let read = (&mut self.file)
                .take(Self::CHUNK)
                .read_to_end(&mut self.pending)
                .map_err(|e| format!("cannot read {path:?}: {e}"))?;
            if read == 0 {
                return Ok(());
            }
            let complete = self
                .pending
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let text = std::str::from_utf8(&self.pending[..complete])
                .map_err(|_| format!("cannot read {path:?}: stream did not contain valid UTF-8"))?;
            for line in text.lines() {
                let decoded = self.decoder.decode(line);
                if let Some(ev) = decoded.map_err(|e| format!("{path}: {e}"))? {
                    each(ev);
                }
            }
            self.pending.drain(..complete);
        }
    }
}

/// `veil obs schema` — print the trace-event schema (one line per event
/// kind with its typed fields).
pub fn schema(args: &Args) -> CmdResult {
    args.check_known(&[])?;
    let mut out = String::new();
    writeln!(out, "trace event schema (JSONL, one event per line)")?;
    writeln!(
        out,
        "common fields: t (f64 simulated time), tid (u32 merge input, else 0),"
    )?;
    writeln!(
        out,
        "seq (u64 recording order), node (u32 or null), kind (tagged payload)"
    )?;
    writeln!(out)?;
    out.push_str(&veil_obs::schema_text());
    Ok(out.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    const LINE: &str =
        r#"{"t":1.0,"tid":0,"seq":0,"node":3,"kind":{"PseudonymsExpired":{"count":2}}}"#;

    /// A fresh trace file and a follower on it.
    fn follow(name: &str) -> (std::path::PathBuf, std::fs::File, TraceFollower) {
        let dir = std::env::temp_dir().join(format!("veil_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let writer = std::fs::File::create(&path).unwrap();
        let follower = TraceFollower::open(path.to_str().unwrap()).unwrap();
        (dir, writer, follower)
    }

    fn poll(follower: &mut TraceFollower) -> Vec<EventKind> {
        let mut events = Vec::new();
        follower.poll(|ev| events.push(ev.kind)).unwrap();
        events
    }

    #[test]
    fn follower_waits_for_a_line_to_complete() {
        let (dir, mut writer, mut follower) = follow("follow_half");
        let (head, rest) = LINE.split_at(LINE.len() / 2);
        writer.write_all(head.as_bytes()).unwrap();
        assert_eq!(poll(&mut follower), []);
        writer.write_all(format!("{rest}\n").as_bytes()).unwrap();
        assert_eq!(
            poll(&mut follower),
            [EventKind::PseudonymsExpired { count: 2 }]
        );
        assert_eq!(poll(&mut follower), []);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn follower_reads_a_backlog_larger_than_a_chunk() {
        let (dir, mut writer, mut follower) = follow("follow_backlog");
        let lines = TraceFollower::CHUNK as usize / LINE.len() + 100;
        writer
            .write_all(format!("{LINE}\n").repeat(lines).as_bytes())
            .unwrap();
        assert_eq!(poll(&mut follower).len(), lines);
        std::fs::remove_dir_all(&dir).ok();
    }
}
