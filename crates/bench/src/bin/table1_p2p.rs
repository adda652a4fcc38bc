//! **Table I** — time to complete 1000 send/recv (ping-pong) operations
//! as a function of message size, for Cray-mpich / OpenMPI (minimpi
//! profiles), MoNA, and raw NA (MoNA without request/buffer pooling; the
//! paper's NA column stops at 2 KiB because NA alone has no
//! large-message protocol).
//!
//! Run: `cargo run --release -p colza-bench --bin table1_p2p [--ops 1000]
//!       [--trace results/BENCH_trace.json]`

use std::sync::Arc;

use colza_bench::{report, table, trace_out};
use na::Fabric;

/// `ops` ping-pong pairs between ranks 0 and 1 of a MoNA or minimpi
/// communicator (the two expose the same calls but share no trait).
macro_rules! pingpong {
    ($comm:expr, $size:expr, $ops:expr) => {{
        let data = vec![0u8; $size];
        for _ in 0..$ops {
            if $comm.rank() == 0 {
                $comm.send(&data, 1, 0).unwrap();
                $comm.recv(1, 1).unwrap();
            } else {
                $comm.recv(0, 0).unwrap();
                $comm.send(&data, 0, 1).unwrap();
            }
        }
    }};
}

fn main() {
    let args = report::begin();
    let ops: usize = args.get("ops", 1000);
    let sizes: &[(usize, &str)] = &[
        (8, "8 bytes"),
        (128, "128 bytes"),
        (2 * 1024, "2 KiB"),
        (16 * 1024, "16 KiB"),
        (32 * 1024, "32 KiB"),
        (512 * 1024, "512 KiB"),
    ];
    table::banner(
        "Table I: time (ms) to complete 1000 send/recv operations",
        &format!("(measured over {ops} ping-pong pairs of virtual time; 2 ranks on 2 nodes)"),
    );

    let mut rows = Vec::new();
    for &(size, label) in sizes {
        let cray = mpi_pingpong(minimpi::Profile::Vendor, size, ops);
        let open = mpi_pingpong(minimpi::Profile::Open, size, ops);
        let mona_t = mona_pingpong(&aries(), mona::MonaConfig::default(), size, ops);
        let na_t = (size <= 2 * 1024).then(|| {
            mona_pingpong(
                &aries(),
                mona::MonaConfig {
                    // Raw NA: no pooling, eager only.
                    rdma_threshold: usize::MAX,
                    ..mona::MonaConfig::raw_na()
                },
                size,
                ops,
            )
        });
        rows.push((
            label.to_string(),
            vec![
                to_ms(cray, ops),
                to_ms(open, ops),
                to_ms(mona_t, ops),
                na_t.map(|t| to_ms(t, ops)).unwrap_or(f64::NAN),
            ],
        ));
    }
    table::print_table(
        "Message size",
        &["Cray-mpich", "OpenMPI", "MoNA", "NA"],
        &rows,
        "milliseconds per 1000 operations; NaN = not applicable",
    );
    println!();
    println!("Paper shape checks:");
    println!("  - Cray-mpich fastest at every size");
    println!("  - OpenMPI collapses at >= 16 KiB (rendezvous cliff); MoNA overtakes it there");
    println!("  - raw NA slower than MoNA at small sizes (no request/buffer pooling)");

    // One extra traced capture run — the measured rows above are always
    // dark, so exporting a timeline cannot perturb the table.
    trace_out::capture(&args, |cluster| {
        mona_pingpong(cluster, mona::MonaConfig::default(), 2 * 1024, ops.min(100));
    });
    report::finish();
}

fn aries() -> hpcsim::Cluster {
    hpcsim::Cluster::new(hpcsim::ClusterConfig::aries())
}

/// Virtual ns for `ops` ping-pong pairs under a minimpi profile.
fn mpi_pingpong(profile: minimpi::Profile, size: usize, ops: usize) -> u64 {
    let cluster = aries();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let out = minimpi::MpiWorld::launch(&cluster, &fabric, 2, 1, 0, profile, move |comm| {
        let ctx = hpcsim::current();
        let before = ctx.now();
        pingpong!(comm, size, ops);
        ctx.now() - before
    });
    out[0]
}

/// Virtual ns for `ops` ping-pong pairs under a MoNA configuration.
fn mona_pingpong(
    cluster: &hpcsim::Cluster,
    config: mona::MonaConfig,
    size: usize,
    ops: usize,
) -> u64 {
    let out = mona::testing::run_ranks(cluster, 2, 1, config, move |comm| {
        let ctx = hpcsim::current();
        let before = ctx.now();
        pingpong!(comm, size, ops);
        ctx.now() - before
    });
    out[0]
}

/// Normalizes a measured run to the paper's 1000-operation convention.
fn to_ms(total_ns: u64, ops: usize) -> f64 {
    total_ns as f64 / 1e6 * (1000.0 / ops as f64)
}
