//! **Trigger sweep** — reactive triggers vs the always-on script on the
//! Deep Water Impact curve; the scenario and its gate live in
//! [`colza_bench::scenarios::trigger`] (DESIGN.md §15).
//!
//! Emits per-iteration JSON rows to `results/BENCH_trigger.json` with
//! both modes' execute spans and the triggered run's skip schedule.
//!
//! Run: `cargo run --release -p colza-bench --bin bench_trigger
//!       [--out results/BENCH_trigger.json] [--servers 2] [--clients 2]
//!       [--blocks 8] [--iters 12] [--seed 42] [--assert]`
//!
//! `--assert` exits nonzero unless the triggered run skipped iterations
//! at ~zero cost, saved at least 5% of the always-on steady execute
//! budget, and reproduced the exact decision schedule on the rerun
//! (`tests/gates.rs` runs the same check).

use colza_bench::report;
use colza_bench::scenarios::trigger::{self, decision_trace, steady_execute_ns};

fn main() {
    let args = report::begin();
    let p = trigger::Params {
        servers: args.get("servers", 2),
        clients: args.get("clients", 2),
        blocks: args.get("blocks", 8),
        iters: args.get("iters", 12),
        seed: args.get("seed", 42),
        image: (128, 96),
    };
    println!(
        "trigger sweep: dwi {} blocks / {} clients / {} servers, {} iterations, seed {}",
        p.blocks, p.clients, p.servers, p.iters, p.seed
    );

    let outcome = trigger::run(&p);
    println!("decision trace : {}", decision_trace(&outcome.triggered));
    println!("rerun trace    : {}", decision_trace(&outcome.rerun));
    // Steady state excludes each mode's first *executed* iteration (the
    // one-time pipeline initialization, which triggers cannot save).
    println!(
        "skipped {}/{} iterations; saved {:.2} ms of always-on execute \
         (max skip cost {:.3} ms); steady-state execute {:.2} ms -> {:.2} ms",
        outcome.triggered.iter().filter(|t| t.skipped).count(),
        p.iters,
        outcome.saved_ns() as f64 / 1e6,
        outcome.skip_cost_max_ns() as f64 / 1e6,
        steady_execute_ns(&outcome.always) as f64 / 1e6,
        steady_execute_ns(&outcome.triggered) as f64 / 1e6,
    );
    report::write_out(&args, "results/BENCH_trigger.json", &outcome.rows());
    report::finish_gated(&args, "assert", trigger::HOLDS, || trigger::check(&outcome));
}
