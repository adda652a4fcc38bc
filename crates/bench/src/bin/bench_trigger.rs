//! **Trigger sweep** — reactive triggers on the Deep Water Impact
//! growing-complexity curve (DESIGN.md §15): the same simulation staged
//! through the same staging area, once with the always-on script and once
//! with the triggered script (`max(v02) > 3.2 || iter % 4 == 1`), which
//! renders the cadence heartbeat plus every jet iteration and skips the
//! quiet early splash.
//!
//! Emits per-iteration JSON rows to `results/BENCH_trigger.json` with
//! both modes' execute spans and the triggered run's skip schedule, plus
//! a rerun of the triggered sweep under the same seed to document that
//! the decision trace replays identically.
//!
//! Run: `cargo run --release -p colza-bench --bin bench_trigger
//!       [--out results/BENCH_trigger.json] [--servers 2] [--clients 2]
//!       [--blocks 8] [--iters 12] [--smoke] [--assert]`
//!
//! `--smoke` shrinks the sweep for CI; `--assert` exits nonzero unless
//! the triggered run skipped iterations, cut total execute time by at
//! least 1.2x, and reproduced the exact decision schedule on the rerun
//! (the gates `scripts/check.sh` runs).

use std::sync::Arc;

use colza::CommMode;
use colza_bench::{
    run_pipeline_experiment, write_json, Args, IterationTimes, PipelineExperiment,
};
use sims::dwi::DwiSeries;

#[derive(serde::Serialize)]
struct Row {
    mode: &'static str,
    iteration: u64,
    servers: usize,
    execute_ns: u64,
    iteration_ns: u64,
    skipped: bool,
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("smoke");
    let out_path = args.get_str("out", "results/BENCH_trigger.json");
    let servers: usize = args.get("servers", 2);
    let clients: usize = args.get("clients", 2);
    let blocks: usize = args.get("blocks", if smoke { 4 } else { 8 });
    let iters: u64 = args.get("iters", if smoke { 10 } else { 12 });
    let seed: u64 = args.get("seed", 42);
    let (w, h) = if smoke { (64, 48) } else { (128, 96) };

    println!(
        "trigger sweep: dwi {blocks} blocks / {clients} clients / {servers} servers, \
         {iters} iterations, seed {seed}"
    );

    let always = run_mode(
        catalyst::PipelineScript::deep_water_impact(w, h),
        servers,
        clients,
        blocks,
        iters,
        seed,
    );
    let triggered = run_mode(
        catalyst::PipelineScript::deep_water_impact_triggered(w, h),
        servers,
        clients,
        blocks,
        iters,
        seed,
    );
    // Same-seed rerun: the decision schedule must replay exactly.
    let rerun = run_mode(
        catalyst::PipelineScript::deep_water_impact_triggered(w, h),
        servers,
        clients,
        blocks,
        iters,
        seed,
    );

    let mut rows = Vec::new();
    for (mode, times) in [("always-on", &always), ("triggered", &triggered)] {
        for t in times {
            rows.push(Row {
                mode,
                iteration: t.iteration,
                servers: t.servers,
                execute_ns: t.execute_ns,
                iteration_ns: t.activate_ns + t.stage_ns + t.execute_ns + t.deactivate_ns,
                skipped: t.skipped,
            });
        }
    }

    let schedule = decision_trace(&triggered);
    let rerun_schedule = decision_trace(&rerun);
    let skipped = triggered.iter().filter(|t| t.skipped).count();
    // The savings triggers guarantee: on every skipped iteration the
    // always-on run paid a full render while the triggered run paid only
    // the fused stats allreduce. (End-to-end steady totals are reported
    // too, but host-measured render times carry scheduling noise, so the
    // gate is on the skipped iterations themselves.)
    // Pairs on always-on's *steady* iterations: its first executed
    // iteration carries the one-time init, which a skip merely defers.
    let always_first_ran = always.iter().position(|t| !t.skipped);
    let saved_ns: u64 = triggered
        .iter()
        .zip(&always)
        .enumerate()
        .filter(|&(i, (t, _))| t.skipped && Some(i) != always_first_ran)
        .map(|(_, (t, a))| a.execute_ns.saturating_sub(t.execute_ns))
        .sum();
    let skip_cost_max = triggered
        .iter()
        .filter(|t| t.skipped)
        .map(|t| t.execute_ns)
        .max()
        .unwrap_or(0);
    // Steady state excludes each mode's first *executed* iteration (the
    // one-time pipeline initialization, which triggers cannot save).
    let exec_always = steady_execute_ns(&always);
    let exec_triggered = steady_execute_ns(&triggered);

    println!("decision trace : {schedule}");
    println!("rerun trace    : {rerun_schedule}");
    println!(
        "skipped {skipped}/{iters} iterations; saved {:.2} ms of always-on execute \
         (max skip cost {:.3} ms); steady-state execute {:.2} ms -> {:.2} ms",
        saved_ns as f64 / 1e6,
        skip_cost_max as f64 / 1e6,
        exec_always as f64 / 1e6,
        exec_triggered as f64 / 1e6,
    );

    write_json(&out_path, &rows);
    println!("wrote {} rows to {out_path}", rows.len());

    if args.has("assert") {
        let mut failed = false;
        if skipped == 0 {
            eprintln!("Assert FAILED: the triggered run never skipped an iteration");
            failed = true;
        }
        // Skips must charge ~zero virtual time...
        if skip_cost_max >= 2_000_000 {
            eprintln!(
                "Assert FAILED: a skipped iteration cost {:.3} ms (not ~zero)",
                skip_cost_max as f64 / 1e6
            );
            failed = true;
        }
        // ...and the savings must be a measurable share of the always-on
        // steady-state execute budget.
        if (saved_ns as f64) < 0.05 * exec_always as f64 {
            eprintln!(
                "Assert FAILED: skipping saved only {:.2} ms of {:.2} ms always-on execute (< 5%)",
                saved_ns as f64 / 1e6,
                exec_always as f64 / 1e6
            );
            failed = true;
        }
        if schedule != rerun_schedule {
            eprintln!(
                "Assert FAILED: same-seed decision traces diverged:\n  {schedule}\n  {rerun_schedule}"
            );
            failed = true;
        }
        if always.iter().any(|t| t.skipped) {
            eprintln!("Assert FAILED: the always-on script skipped an iteration");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "Assert: {skipped} skips saved {:.2} ms ({:.0}% of always-on steady execute), \
             max skip cost {:.3} ms, same-seed decision trace replayed exactly (OK)",
            saved_ns as f64 / 1e6,
            100.0 * saved_ns as f64 / exec_always as f64,
            skip_cost_max as f64 / 1e6,
        );
    }
}

fn run_mode(
    script: catalyst::PipelineScript,
    servers: usize,
    clients: usize,
    blocks: usize,
    iters: u64,
    seed: u64,
) -> Vec<IterationTimes> {
    let series = DwiSeries {
        total_blocks: blocks,
        scale: 1.0 / 1024.0,
        iterations: iters,
    };
    let make: colza_bench::MakeBlocks =
        Arc::new(move |rank, iter, n_clients| {
            (0..blocks)
                .filter(|b| b % n_clients == rank)
                .map(|b| {
                    (
                        b as u64,
                        vizkit::DataSet::UGrid(series.generate_block(iter, b)),
                    )
                })
                .collect()
        });
    let mut exp = PipelineExperiment::new(servers, clients, CommMode::Mona, script, iters);
    exp.seed = seed;
    run_pipeline_experiment(exp, make)
}

/// Total execute span excluding the first executed (non-skipped)
/// iteration, which pays the pipeline's one-time initialization.
fn steady_execute_ns(times: &[IterationTimes]) -> u64 {
    let first_ran = times.iter().position(|t| !t.skipped);
    times
        .iter()
        .enumerate()
        .filter(|&(i, _)| Some(i) != first_ran)
        .map(|(_, t)| t.execute_ns)
        .sum()
}

/// The canonical per-iteration decision string ("R" ran, "s" skipped):
/// the trace the same-seed determinism gate compares byte-for-byte.
fn decision_trace(times: &[IterationTimes]) -> String {
    times
        .iter()
        .map(|t| if t.skipped { 's' } else { 'R' })
        .collect()
}
