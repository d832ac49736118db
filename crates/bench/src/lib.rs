//! Shared infrastructure for the experiment harness: output locations,
//! paper-vs-measured reporting, and scale selection.
//!
//! Every bench target under `benches/` regenerates one table or figure
//! of the paper. Run them all with `cargo bench -p bench`; results are
//! printed in paper-style rows and persisted as JSON/CSV under
//! `target/experiments/`.

#![deny(unsafe_code)]

use std::io::Write;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// The workspace root, found by walking up from `CARGO_MANIFEST_DIR`
/// (or the current directory) to the first ancestor holding a
/// `Cargo.lock`. Unlike a fixed `"../.."` hop this keeps working if a
/// crate moves or the helper is reused from another crate's benches.
pub fn workspace_root() -> PathBuf {
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| PathBuf::from("."));
    find_workspace_root(&start).unwrap_or(start)
}

/// The nearest ancestor of `start` (inclusive) containing `Cargo.lock`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|d| d.join("Cargo.lock").is_file())
        .map(Path::to_path_buf)
}

/// Where experiment artifacts are written.
pub fn out_dir() -> PathBuf {
    // Resolve the *workspace* target dir: benches run with the package
    // directory as CWD, so a relative "target" would land inside the
    // package.
    let base = match std::env::var("CARGO_TARGET_DIR") {
        Ok(t) => PathBuf::from(t),
        Err(_) => workspace_root().join("target"),
    };
    let dir = base.join("experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Persist a CSV artifact; returns its path.
pub fn write_csv(name: &str, content: &str) -> PathBuf {
    let path = out_dir().join(format!("{name}.csv"));
    std::fs::write(&path, content).expect("write csv");
    path
}

/// Persist a JSON artifact; returns its path.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let path = out_dir().join(format!("{name}.json"));
    let f = std::fs::File::create(&path).expect("create json");
    let mut w = std::io::BufWriter::new(f);
    serde_json::to_writer_pretty(&mut w, value).expect("serialize");
    writeln!(w).ok();
    path
}

/// Experiment scale, selected with `EXPERIMENT_SCALE=full` (default:
/// `quick`, sized so the whole suite finishes in a few minutes on a
/// laptop-class machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced problem sizes for CI / quick runs.
    Quick,
    /// Paper-scale runs (32-city TSP, full sweeps).
    Full,
}

/// Read the scale from the environment.
pub fn scale() -> Scale {
    match std::env::var("EXPERIMENT_SCALE").as_deref() {
        Ok("full") | Ok("FULL") => Scale::Full,
        _ => Scale::Quick,
    }
}

/// One row of a paper-vs-measured comparison.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Row label (e.g. `spin-lock` or `centralized/blocking`).
    pub label: String,
    /// The paper's reported value (unit per table).
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Row {
    /// Construct a row.
    pub fn new(label: impl Into<String>, paper: f64, measured: f64) -> Row {
        Row {
            label: label.into(),
            paper,
            measured,
        }
    }
}

/// Print a table header.
pub fn print_header(title: &str, unit: &str) {
    println!();
    println!("== {title} ==");
    println!("{:<32} {:>14} {:>14}", "", format!("paper ({unit})"), format!("measured ({unit})"));
}

/// Print comparison rows and a shape verdict: the orderings of the
/// paper column and the measured column are compared.
pub fn print_rows_with_verdict(rows: &[Row]) {
    for r in rows {
        println!("{:<32} {:>14.2} {:>14.2}", r.label, r.paper, r.measured);
    }
    let verdict = if same_ordering(rows) { "PRESERVED" } else { "DIFFERS" };
    println!("   ordering of rows: {verdict}");
}

/// Whether the measured column orders the rows the same way the paper
/// column does.
pub fn same_ordering(rows: &[Row]) -> bool {
    let mut by_paper: Vec<usize> = (0..rows.len()).collect();
    by_paper.sort_by(|&a, &b| rows[a].paper.total_cmp(&rows[b].paper));
    let mut by_measured: Vec<usize> = (0..rows.len()).collect();
    by_measured.sort_by(|&a, &b| rows[a].measured.total_cmp(&rows[b].measured));
    by_paper == by_measured
}

/// Percentage improvement of `new` over `old` (paper's Tables 1–3
/// metric).
pub fn improvement_pct(old: f64, new: f64) -> f64 {
    (old - new) / old * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_check_detects_inversions() {
        let ok = vec![
            Row::new("a", 1.0, 10.0),
            Row::new("b", 2.0, 30.0),
            Row::new("c", 3.0, 40.0),
        ];
        assert!(same_ordering(&ok));
        let bad = vec![Row::new("a", 1.0, 30.0), Row::new("b", 2.0, 10.0)];
        assert!(!same_ordering(&bad));
    }

    #[test]
    fn improvement_matches_paper_arithmetic() {
        // Table 1: 3207 -> 2636 is reported as 17.8%.
        let pct = improvement_pct(3207.0, 2636.0);
        assert!((pct - 17.8).abs() < 0.1, "{pct}");
    }

    #[test]
    fn scale_defaults_to_quick() {
        // (Environment-dependent test kept tolerant: only the default
        // path is asserted when the variable is unset.)
        if std::env::var("EXPERIMENT_SCALE").is_err() {
            assert_eq!(scale(), Scale::Quick);
        }
    }

    #[test]
    fn workspace_root_is_found_by_walking_up() {
        // From this crate's manifest dir, the root is wherever
        // Cargo.lock lives — not a hard-coded number of `..` hops.
        let root = workspace_root();
        assert!(root.join("Cargo.lock").is_file());
        assert!(root.join("crates").is_dir());
        // The walk also works from deeper inside the workspace...
        let deep = root.join("crates/bench/src");
        assert_eq!(find_workspace_root(&deep), Some(root));
        // ...and reports failure outside of any workspace.
        assert_eq!(find_workspace_root(Path::new("/dev")), None);
    }

    #[test]
    fn artifacts_land_in_out_dir() {
        let p = write_csv("selftest", "a,b\n1,2\n");
        assert!(p.exists());
        let q = write_json("selftest", &vec![Row::new("x", 1.0, 2.0)]);
        assert!(q.exists());
    }
}
