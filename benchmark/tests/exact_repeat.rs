//! The modeled currency repeats: on the three static workloads the same
//! seed gives exactly the same counts, and the same modeled stage time up
//! to the order in which the two ranks' RPCs reach a shared server;
//! another seed is accepted and changes the generated inputs only.

use std::collections::BTreeMap;
use std::process::Command;

use serde::Deserialize;

#[derive(Deserialize)]
struct Metric {
    value: f64,
}

#[derive(Deserialize)]
struct RunResult {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

const STATIC_WORKLOADS: [&str; 3] = ["gs_surface", "dwi_volume", "gs_stage_delta"];

/// Counts that are pure functions of the workload and the seed.
const EXACT: [&str; 4] = [
    "na.rdma_bytes_per_iter",
    "margo.rpcs_per_iter",
    "mona.colls_per_iter",
    "core.codec.delta.ratio",
];

fn run(workload: &str, seed: u64, trace: u8) -> BTreeMap<String, f64> {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "colza-benchmark-repeat-{}-{workload}-{trace}",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_colza-benchmark"))
        .args(["--smoke", "--workload", workload, "--seconds", "0.3"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary runs");
    std::fs::remove_dir_all(&out_dir).ok();
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result: RunResult = serde_json::from_str(last).expect("the result parses");
    assert!(result.correct && result.failed == 0);
    result
        .metrics
        .into_iter()
        .map(|(k, m)| (k, m.value))
        .collect()
}

#[test]
fn same_seed_repeats_the_modeled_counts_exactly() {
    for workload in STATIC_WORKLOADS {
        let (a, b) = (run(workload, 7, 1), run(workload, 7, 1));
        for name in EXACT {
            assert_eq!(
                a[name], b[name],
                "{workload}: {name} differs between same-seed runs"
            );
        }
        assert!(a["margo.rpcs_per_iter"] > 0.0 && a["na.rdma_bytes_per_iter"] > 0.0);
    }
}

#[test]
fn same_seed_repeats_the_modeled_stage_time() {
    // Modeled, but not bit-identical, and it cannot be made so from outside
    // the crates without staging one rank after the other: the two ranks
    // stage concurrently, a server's clock advances with every RPC it
    // handles, and which rank's RPC it takes first is decided by the host's
    // threads. Two same-seed runs must agree within the bound
    // `BENCHMARK.json` puts on the metric. `dwi_volume` is left out at toy
    // scale: its 32 RPCs of a few hundred bytes make the phase nothing but
    // that contention, and the mean sits at 0.10 or 0.135 ms depending on
    // whether the host ran the two ranks truly in parallel. (At full scale
    // ten seeds agree within 2 % on every workload; README, "Noise".)
    #[derive(Deserialize)]
    struct Bounded {
        name: String,
        bound: f64,
    }
    #[derive(Deserialize)]
    struct Spec {
        end_to_end: Vec<Bounded>,
    }
    let spec: Spec =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let bound = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "virt_stage_ms")
        .expect("virt_stage_ms is an end-to-end metric")
        .bound;
    for workload in ["gs_surface", "gs_stage_delta"] {
        let (a, b) = (run(workload, 7, 0), run(workload, 7, 0));
        let (x, y) = (a["virt_stage_ms"], b["virt_stage_ms"]);
        assert!(
            (x - y).abs() <= bound * x.min(y),
            "{workload}: virt_stage_ms {x} vs {y}"
        );
    }
}

#[test]
fn another_seed_changes_the_inputs_not_the_traffic_shape() {
    let (a, b) = (run("gs_stage_delta", 7, 1), run("gs_stage_delta", 8, 1));
    assert_ne!(
        a["core.codec.delta.ratio"], b["core.codec.delta.ratio"],
        "different seeds generate different fields"
    );
    for name in ["margo.rpcs_per_iter", "mona.colls_per_iter"] {
        assert_eq!(
            a[name], b[name],
            "{name} depends on the workload, not on the seed"
        );
    }
}
