//! Timeline export for harness binaries (`--trace <path>`).
//!
//! Every harness that opts in takes a `--trace results/BENCH_trace.json`
//! argument and, after its measured (untraced) runs, performs one extra
//! traced capture run and writes the cluster's Chrome-trace timeline to
//! the given path (open it at <https://ui.perfetto.dev>). Keeping the
//! capture separate from the measured runs means the published numbers
//! are always from dark runs — tracing can never perturb a result row.

use crate::Args;

/// When `--trace <path>` was passed: runs `scenario` on a fresh recording
/// cluster and writes its timeline as Chrome-trace JSON to the path, plus
/// the counter/histogram dump as JSONL next to it (`<path>.metrics.jsonl`).
pub fn capture(args: &Args, scenario: impl FnOnce(&hpcsim::Cluster)) {
    let path = args.get_str("trace", "");
    if path.is_empty() {
        return;
    }
    let cluster = hpcsim::Cluster::new(hpcsim::ClusterConfig::aries());
    cluster.shared().tracer().set_enabled(true);
    scenario(&cluster);
    let snap = cluster.shared().trace_snapshot();
    match std::fs::write(&path, snap.to_chrome_json()) {
        Ok(()) => println!(
            "trace: wrote {} spans to {path} (open at https://ui.perfetto.dev)",
            snap.spans.len()
        ),
        Err(e) => eprintln!("trace: failed to write {path}: {e}"),
    }
    let metrics_path = format!("{path}.metrics.jsonl");
    if let Err(e) = std::fs::write(&metrics_path, snap.to_metrics_jsonl()) {
        eprintln!("trace: failed to write {metrics_path}: {e}");
    }
}
