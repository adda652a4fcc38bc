//! The printed metric names are exactly the names `BENCHMARK.json` lists,
//! and the file stays inside the limits the benchmark driver enforces.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

use serde::Deserialize;

#[derive(Deserialize)]
struct Named {
    name: String,
    #[serde(default)]
    unit: String,
    #[serde(default)]
    why: String,
    #[serde(default)]
    better: String,
    #[serde(default)]
    bound: f64,
}

#[derive(Deserialize)]
struct Spec {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

#[derive(Deserialize)]
struct Line {
    workload: String,
    trace: u8,
    result: RunResult,
}

fn spec() -> Spec {
    serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_within_the_drivers_limits() {
    let spec = spec();
    assert!((1..=32).contains(&spec.command.len()));
    assert!(spec
        .command
        .iter()
        .all(|s| s.len() <= 200 && !s.starts_with('/') && !s.contains("..")));
    assert_eq!(spec.paths, ["benchmark"]);
    assert!((1..=60).contains(&spec.run_seconds));
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    assert!(include_str!("../../BENCHMARK.json").len() <= 64 * 1024);

    let mut seen = BTreeSet::new();
    for w in &spec.workloads {
        assert!(is_name(&w.name), "workload name {:?}", w.name);
        assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
        assert!(
            seen.insert(w.name.clone()),
            "name {:?} is used twice",
            w.name
        );
    }
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(is_name(&m.name), "metric name {:?}", m.name);
        assert!(is_unit(&m.unit), "unit {:?} of {}", m.unit, m.name);
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        assert!(
            seen.insert(m.name.clone()),
            "name {:?} is used twice",
            m.name
        );
    }
    for m in &spec.end_to_end {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let widest = spec.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
}

#[test]
fn smoke_prints_exactly_the_metrics_benchmark_json_names() {
    let spec = spec();
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("colza-benchmark-schema-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_colza-benchmark"))
        .arg("--smoke")
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "--smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<Line> = stdout
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad result line {l:?}: {e}")))
        .collect();

    let names = |list: &[Named]| -> BTreeMap<String, String> {
        list.iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    };
    let (end_to_end, per_layer) = (names(&spec.end_to_end), names(&spec.per_layer));
    let mut runs = BTreeSet::new();
    for line in &lines {
        let result = &line.result;
        assert!(
            result.correct && result.failed == 0 && result.attempted >= 1,
            "{}",
            line.workload
        );
        let wanted = if line.trace == 0 {
            &end_to_end
        } else {
            &per_layer
        };
        let printed: BTreeMap<String, String> = result
            .metrics
            .iter()
            .map(|(k, m)| (k.clone(), m.unit.clone()))
            .collect();
        assert_eq!(&printed, wanted, "{} --trace {}", line.workload, line.trace);
        assert!(result.metrics.values().all(|m| m.value.is_finite()));
        if line.trace == 0 {
            for (name, m) in &result.metrics {
                assert!(
                    m.value > 0.0,
                    "end-to-end metric {name} of {} is not positive",
                    line.workload
                );
            }
        }
        if line.trace == 1 && line.workload != "elastic_churn" {
            // The workload's layer view is made of its own calls only: the
            // client's `execute` is the slowest server's plus one RPC. (A
            // driver's client calls leaking into it would multiply it: the
            // resize driver's executes carry Catalyst's modeled 3 s start.)
            let value = |name: &str| result.metrics[name].value;
            let (client, server) = (
                value("core.execute.virt_us"),
                value("core.srv_execute.virt_us"),
            );
            assert!(
                client >= server && client - server <= 0.02 * server + 20.0,
                "{}: client execute {client} us against server execute {server} us",
                line.workload
            );
        }
        runs.insert((line.workload.clone(), line.trace));
    }
    let wanted_runs: BTreeSet<(String, u8)> = spec
        .workloads
        .iter()
        .flat_map(|w| [(w.name.clone(), 0), (w.name.clone(), 1)])
        .collect();
    assert_eq!(
        runs, wanted_runs,
        "one dark and one traced run per workload"
    );
    for w in &spec.workloads {
        assert!(
            out_dir.join(format!("trace-{}.json", w.name)).is_file(),
            "traced run of {} wrote its spans",
            w.name
        );
    }
    std::fs::remove_dir_all(&out_dir).ok();
}
