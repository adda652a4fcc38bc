//! **Collective engine sweep** — virtual-time cost of MoNA's collectives
//! across message sizes and communicator sizes, with the size-adaptive
//! engine (pipelined trees + Rabenseifner allreduce) measured against the
//! naive whole-payload algorithms ([`mona::MonaConfig::naive_collectives`]).
//!
//! Emits JSON rows keyed by op/size/algorithm to `results/BENCH_coll.json`
//! so the selection table in DESIGN.md §11 stays justified by data.
//!
//! Run: `cargo run --release -p colza-bench --bin bench_coll
//!       [--out results/BENCH_coll.json] [--smoke] [--assert]`
//!
//! `--smoke` shrinks the sweep for CI; `--assert` exits nonzero unless the
//! adaptive engine beats the naive one for every op at sizes above the
//! pipeline switchover.

use colza_bench::{write_json, Args};

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Bcast,
    Reduce,
    Allreduce,
    Allgather,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Bcast => "bcast",
            Op::Reduce => "reduce",
            Op::Allreduce => "allreduce",
            Op::Allgather => "allgather",
        }
    }
}

#[derive(serde::Serialize)]
struct Row {
    op: &'static str,
    ranks: usize,
    size: usize,
    engine: &'static str,
    algorithm: &'static str,
    ns_per_op: u64,
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("smoke");
    let out_path = args.get_str("out", "results/BENCH_coll.json");

    let sizes: Vec<usize> = if smoke {
        vec![2 * 1024, 64 * 1024]
    } else {
        vec![128, 2 * 1024, 16 * 1024, 128 * 1024, 1024 * 1024, 4 * 1024 * 1024]
    };
    let rank_counts: Vec<usize> = if smoke { vec![16] } else { vec![16, 64] };
    let ops = [Op::Bcast, Op::Reduce, Op::Allreduce, Op::Allgather];

    let mut rows = Vec::new();
    for &ranks in &rank_counts {
        for &size in &sizes {
            for op in ops {
                // Allgather materializes n * size bytes on every rank; cap
                // the total so the sweep stays host-friendly.
                if op == Op::Allgather && size * ranks > 1024 * 1024 {
                    continue;
                }
                let iters = if smoke {
                    3
                } else if size >= 1024 * 1024 {
                    5
                } else if size >= 64 * 1024 {
                    10
                } else {
                    30
                };
                for (engine, config) in [
                    ("adaptive", mona::MonaConfig::default()),
                    ("naive", mona::MonaConfig::naive_collectives()),
                ] {
                    let algorithm = algorithm_label(&config.coll, op, size, ranks);
                    let ns = measure(op, config, ranks, size, iters);
                    println!(
                        "{:>9} n={ranks:<3} {:>9} B  {engine:<8} {algorithm:<22} {:>12} ns/op",
                        op.name(),
                        size,
                        ns
                    );
                    rows.push(Row {
                        op: op.name(),
                        ranks,
                        size,
                        engine,
                        algorithm,
                        ns_per_op: ns,
                    });
                }
            }
        }
    }

    write_json(&out_path, &rows);
    println!("\nwrote {} rows to {out_path}", rows.len());

    if args.has("assert") {
        let failures = check_adaptive_wins(&rows);
        if failures.is_empty() {
            println!("Assert: adaptive engine beats naive above the switchover (OK)");
        } else {
            eprintln!("Assert FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
    }
}

fn algorithm_label(coll: &mona::CollTuning, op: Op, size: usize, n: usize) -> &'static str {
    match op {
        Op::Bcast | Op::Reduce => coll.tree_algorithm(size, n),
        Op::Allreduce => coll.allreduce_algorithm(size, n),
        Op::Allgather => coll.allgather_algorithm(size, n),
    }
}

/// Maximum per-rank virtual time for `iters` back-to-back collectives.
fn measure(op: Op, config: mona::MonaConfig, ranks: usize, size: usize, iters: usize) -> u64 {
    let cluster = hpcsim::Cluster::new(hpcsim::ClusterConfig::aries());
    let out = mona::testing::run_ranks(&cluster, ranks, 16, config, move |comm| {
        let data = vec![(comm.rank() % 251) as u8; size];
        let ctx = hpcsim::current();
        comm.barrier().unwrap();
        let before = ctx.now();
        for _ in 0..iters {
            match op {
                Op::Bcast => {
                    comm.bcast((comm.rank() == 0).then_some(&data[..]), 0).unwrap();
                }
                Op::Reduce => {
                    comm.reduce(&data, &mona::ops::bxor_u8, 0).unwrap();
                }
                Op::Allreduce => {
                    comm.allreduce(&data, &mona::ops::bxor_u8).unwrap();
                }
                Op::Allgather => {
                    comm.allgather(&data).unwrap();
                }
            }
        }
        comm.barrier().unwrap();
        ctx.now() - before
    });
    out.into_iter().max().unwrap() / iters as u64
}

/// For every (op, ranks, size) where the adaptive engine picked a different
/// algorithm than naive, the adaptive time must not lose.
fn check_adaptive_wins(rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for a in rows.iter().filter(|r| r.engine == "adaptive") {
        let Some(naive) = rows.iter().find(|r| {
            r.engine == "naive" && r.op == a.op && r.ranks == a.ranks && r.size == a.size
        }) else {
            continue;
        };
        if a.algorithm == naive.algorithm {
            continue; // below the switchover: engines run the same code
        }
        if a.ns_per_op >= naive.ns_per_op {
            failures.push(format!(
                "{} n={} size={}: {} at {} ns/op does not beat {} at {} ns/op",
                a.op, a.ranks, a.size, a.algorithm, a.ns_per_op, naive.algorithm, naive.ns_per_op
            ));
        }
    }
    failures
}
