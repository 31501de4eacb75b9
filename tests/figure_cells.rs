//! The `figures` binary's byte checks, as cells.
//!
//! Each cell runs `figures` in its own directory under
//! `target/tmp/cells/<cell>/`, where the rows write `target/figures/`, and
//! holds the output to the committed files it must reproduce. A changed
//! figure number fails here, not only a crash. The full-scale recovery
//! sweep is `#[ignore]`d; CI runs it with `-- --ignored`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs `figures rows` with `VEIL_SCALE=scale` (and `VEIL_FAULT_LOSS=loss`
/// when given) in an empty directory for `cell`; returns the directory
/// and stdout.
fn figures(cell: &str, rows: &[&str], scale: &str, loss: Option<&str>) -> (PathBuf, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cells")
        .join(cell);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the cell directory");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.args(rows).current_dir(&dir).env("VEIL_SCALE", scale);
    match loss {
        Some(p) => cmd.env("VEIL_FAULT_LOSS", p),
        None => cmd.env_remove("VEIL_FAULT_LOSS"),
    };
    let out = cmd.output().expect("spawn figures");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "figures {rows:?} failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, stdout)
}

/// Asserts the fresh `BENCH_<name>.json` equals the committed baseline
/// byte for byte, apart from the host's core count. After an intended
/// change, copy the fresh file over the baseline.
fn assert_matches_baseline(dir: &Path, name: &str) {
    let lines = |path: &Path| -> Vec<String> {
        let text = read(path);
        let kept = text.lines().filter(|l| !l.contains("\"available_cores\""));
        kept.map(str::to_string).collect()
    };
    let file = format!("BENCH_{name}.json");
    assert!(
        lines(&root().join("benchmarks/baseline").join(&file))
            == lines(&dir.join("target/figures").join(&file)),
        "{file} differs from benchmarks/baseline/{file}"
    );
}

#[test]
fn paper_rows_at_scale_10_match_the_pinned_output() {
    // Both pinned files come from one `VEIL_SCALE=10 figures` run in a
    // clean directory; re-capture them together.
    let (dir, stdout) = figures("figures_scale10", &[], "10", None);
    std::fs::write(dir.join("stdout.txt"), &stdout).expect("keep stdout");
    assert!(
        stdout == read(&root().join("benchmarks/figures_scale10.txt")),
        "stdout differs from benchmarks/figures_scale10.txt; see {}",
        dir.join("stdout.txt").display()
    );
    let check = Command::new("sha256sum")
        .arg("-c")
        .arg(root().join("benchmarks/figures_scale10.sha256"))
        .current_dir(&dir)
        .output()
        .expect("spawn sha256sum");
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stdout)
    );
}

#[test]
fn fig3_connectivity_runs_over_lossy_links() {
    // Loss 0 keeps the ideal layer; the lossy cells carry the figure
    // pipeline end to end over a non-ideal link layer.
    for loss in ["0", "0.05", "0.2"] {
        let cell = format!("fig3_loss_{loss}");
        let (dir, _) = figures(&cell, &["fig3_connectivity"], "10", Some(loss));
        assert!(dir.join("target/figures/fig3_connectivity.json").is_file());
    }
}

#[test]
fn degradation_sweeps_match_the_baseline() {
    let (dir, _) = figures("bench_faults", &["bench_faults"], "10", None);
    assert_matches_baseline(&dir, "faults");
}

#[test]
#[ignore = "the full-scale recovery sweep is slow in a debug build"]
fn recovery_sweep_matches_the_baseline() {
    let (dir, _) = figures("recovery_sweep", &["recovery_sweep"], "1", None);
    assert_matches_baseline(&dir, "recovery");
}
