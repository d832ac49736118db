//! `cargo test --manifest-path benchmark/Cargo.toml`: the published
//! names are well-formed and match `BENCHMARK.json`, and every workload
//! runs, traced, for a second at tiny sizes with every oracle passing.

use std::collections::BTreeSet;

use crate::{result_line, run_workload, spec, Sizes};

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&s.len()) && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&s.len()) && s.chars().all(ok)
}

#[test]
fn published_names_and_units_are_within_the_contract() {
    let mut seen = BTreeSet::new();
    for w in &spec::WORKLOADS {
        assert!(is_name(w.name) && seen.insert(w.name), "workload name {:?}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains(['\n', '"']),
            "why of {} has {} chars",
            w.name,
            w.why.len()
        );
    }
    for m in &spec::END_TO_END {
        assert!(is_name(m.name) && seen.insert(m.name), "metric name {:?}", m.name);
        assert!(is_unit(m.unit), "unit {:?}", m.unit);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    for m in &spec::PER_LAYER {
        assert!(is_name(m.name) && seen.insert(m.name), "metric name {:?}", m.name);
        assert!(is_unit(m.unit), "unit {:?}", m.unit);
    }
    assert!((2..=8).contains(&spec::WORKLOADS.iter().filter(|w| w.listed).count()));
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert!(setup.unit == "s" && !setup.higher_is_better);
    assert!(
        spec::END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn benchmark_json_is_what_the_spec_prints() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the root of the repo");
    assert!(on_disk.len() <= 64 * 1024);
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate it with `stack-benchmark spec > BENCHMARK.json`"
    );
}

/// One test, so that the workloads run one after another: side by side
/// they would measure each other.
#[test]
fn every_workload_runs_traced_at_tiny_sizes_with_every_oracle_passing() {
    let sizes = Sizes::tiny();
    for w in &spec::WORKLOADS {
        let outcome = run_workload(w.name, 1, 1.0, true, &sizes).expect("a workload of the spec");
        assert_eq!(outcome.plain.failed, 0, "{}: an oracle failed", w.name);
        assert!(outcome.plain.attempted > 0, "{}: nothing attempted", w.name);
        for m in &spec::END_TO_END {
            let v = outcome.end_to_end(m.name);
            assert!(v.is_finite() && v > 0.0, "{}: {} = {v}", w.name, m.name);
        }
        assert_eq!(
            outcome.layer.len(),
            spec::PER_LAYER.len(),
            "{}: per-layer metrics",
            w.name
        );
        assert!(outcome.layer["trace.spans"] > 0.0, "{}: no span recorded", w.name);
        assert!(
            outcome.trace_file.as_ref().is_some_and(|p| p.exists()),
            "{}: no trace file",
            w.name
        );
        for traced in [false, true] {
            let line = result_line(&outcome, traced);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": ") && line.ends_with("}}"),
                "{line}"
            );
            assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        }
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    assert!(run_workload("no-such", 1, 1.0, false, &Sizes::tiny()).is_none());
}
