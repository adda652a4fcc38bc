//! Virtual-time cost of MoNA's collectives across message sizes and
//! communicator sizes, with the size-adaptive engine (pipelined trees +
//! Rabenseifner allreduce) measured against the naive whole-payload
//! algorithms ([`mona::MonaConfig::naive_collectives`]) — the data that
//! keeps the selection table in DESIGN.md §11 justified.

/// What [`check`] verifies.
pub const HOLDS: &str = "adaptive engine beats naive above the switchover";

#[derive(Clone, Copy, PartialEq)]
pub enum Op {
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

    fn algorithm(self, coll: &mona::CollTuning, size: usize, n: usize) -> &'static str {
        match self {
            Op::Bcast | Op::Reduce => coll.tree_algorithm(size, n),
            Op::Allreduce => coll.allreduce_algorithm(size, n),
            Op::Allgather => coll.allgather_algorithm(size, n),
        }
    }
}

#[derive(serde::Serialize)]
pub struct Row {
    pub op: &'static str,
    pub ranks: usize,
    pub size: usize,
    pub engine: &'static str,
    pub algorithm: &'static str,
    pub ns_per_op: u64,
}

/// The sweep: every op at every (ranks, size), both engines. `iters` is
/// the number of back-to-back collectives per measurement; `None` scales
/// it down as the payload grows (30 / 10 / 5).
pub fn run(sizes: &[usize], rank_counts: &[usize], iters: Option<usize>) -> Vec<Row> {
    let mut rows = Vec::new();
    for &ranks in rank_counts {
        for &size in sizes {
            for op in [Op::Bcast, Op::Reduce, Op::Allreduce, Op::Allgather] {
                // Allgather materializes n * size bytes on every rank; cap
                // the total so the sweep stays host-friendly.
                if op == Op::Allgather && size * ranks > 1024 * 1024 {
                    continue;
                }
                let iters = iters.unwrap_or(match size {
                    s if s >= 1024 * 1024 => 5,
                    s if s >= 64 * 1024 => 10,
                    _ => 30,
                });
                for (engine, config) in [
                    ("adaptive", mona::MonaConfig::default()),
                    ("naive", mona::MonaConfig::naive_collectives()),
                ] {
                    let cluster = hpcsim::Cluster::new(hpcsim::ClusterConfig::aries());
                    rows.push(Row {
                        op: op.name(),
                        ranks,
                        size,
                        engine,
                        algorithm: op.algorithm(&config.coll, size, ranks),
                        ns_per_op: measure(&cluster, op, config, ranks, 16, size, iters)
                            / iters as u64,
                    });
                }
            }
        }
    }
    rows
}

/// Maximum per-rank virtual time for `iters` back-to-back collectives of
/// `size` bytes, fenced by barriers so the slowest rank's completion is
/// what is reported.
pub fn measure(
    cluster: &hpcsim::Cluster,
    op: Op,
    config: mona::MonaConfig,
    ranks: usize,
    per_node: usize,
    size: usize,
    iters: usize,
) -> u64 {
    let out = mona::testing::run_ranks(cluster, ranks, per_node, config, move |comm| {
        let data = vec![(comm.rank() % 251) as u8; size];
        let ctx = hpcsim::current();
        comm.barrier().unwrap();
        let before = ctx.now();
        for _ in 0..iters {
            match op {
                Op::Bcast => {
                    comm.bcast((comm.rank() == 0).then_some(&data[..]), 0)
                        .unwrap();
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
    out.into_iter().max().unwrap()
}

/// For every (op, ranks, size) where the adaptive engine picked a
/// different algorithm than naive, names the row if adaptive lost.
pub fn check(rows: &[Row]) -> Vec<String> {
    let mut violations = Vec::new();
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
            violations.push(format!(
                "{} n={} size={}: {} at {} ns/op does not beat {} at {} ns/op",
                a.op, a.ranks, a.size, a.algorithm, a.ns_per_op, naive.algorithm, naive.ns_per_op
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(engine: &'static str, algorithm: &'static str, ns_per_op: u64) -> Row {
        Row {
            op: "bcast",
            ranks: 16,
            size: 64 * 1024,
            engine,
            algorithm,
            ns_per_op,
        }
    }

    #[test]
    fn adaptive_slower_than_naive_above_the_switchover_is_named() {
        let naive = || row("naive", "binomial", 50_000);
        assert!(check(&[row("adaptive", "pipelined", 30_000), naive()]).is_empty());
        // Same algorithm on both sides: below the switchover, no claim.
        assert!(check(&[row("adaptive", "binomial", 60_000), naive()]).is_empty());
        let v = check(&[row("adaptive", "pipelined", 60_000), naive()]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("bcast n=16 size=65536") && v[0].contains("pipelined"),
            "{v:?}"
        );
    }
}
