//! **Figure 4** — time to resize a staging area from N to N+1 processes,
//! comparing a *static* deployment (kill everything, ask the launcher to
//! restart at N+1) against an *elastic* one (start one daemon; SSG gossip
//! propagates the membership).
//!
//! Run: `cargo run --release -p colza-bench --bin fig4_resize
//!       [--max-n 12] [--trials 3]`

use colza::StagingArea;
use colza_bench::{report, table};
use hpcsim::stats::{fmt_ns, Summary};
use rand::{Rng, SeedableRng};

fn main() {
    let args = report::begin();
    let max_n: usize = args.get("max-n", 12);
    let trials: usize = args.get("trials", 3);
    table::banner(
        "Figure 4: resizing time from N to N+1 staging processes",
        &format!("(static restart vs elastic SSG join; {trials} trials per N)"),
    );
    println!(
        "{:>4} {:>16} {:>16} {:>16} {:>16}",
        "N", "elastic mean", "elastic max", "static mean", "static max"
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let mut all_elastic = Vec::new();
    let mut all_static = Vec::new();
    for n in 1..=max_n {
        let mut elastic = Vec::new();
        let mut stat = Vec::new();
        for t in 0..trials {
            elastic.push(elastic_resize_ns(n, t as u64));
            stat.push(static_resize_ns(n, &mut rng));
        }
        let es = Summary::of(&elastic).unwrap();
        let ss = Summary::of(&stat).unwrap();
        println!(
            "{n:>4} {:>16} {:>16} {:>16} {:>16}",
            fmt_ns(es.mean as u64),
            fmt_ns(es.max),
            fmt_ns(ss.mean as u64),
            fmt_ns(ss.max)
        );
        all_elastic.extend(elastic);
        all_static.extend(stat);
    }
    let es = Summary::of(&all_elastic).unwrap();
    let ss = Summary::of(&all_static).unwrap();
    println!();
    println!(
        "overall elastic: mean {} (min {}, max {})",
        fmt_ns(es.mean as u64),
        fmt_ns(es.min),
        fmt_ns(es.max)
    );
    println!(
        "overall static:  mean {} (min {}, max {})",
        fmt_ns(ss.mean as u64),
        fmt_ns(ss.min),
        fmt_ns(ss.max)
    );
    println!();
    println!("Paper shape: elastic stable around ~5 s; static larger (5-40 s),");
    println!("unpredictable, averaging ~16 s.");
    report::finish();
}

/// Elastic: group of n exists; spawn one more daemon and measure virtual
/// time until every member's view includes it.
fn elastic_resize_ns(n: usize, seed_shift: u64) -> u64 {
    let mut area = StagingArea::new(hpcsim::ClusterConfig {
        fabric: hpcsim::fabric::presets::aries(),
        seed: 7 + seed_shift,
        ..Default::default()
    });
    area.launch(n, 4);
    // Let the group settle, then measure from the current wall time.
    let t0 = area.shared().max_clock_ns();
    area.grow_on(&[n / 4 + 1]);
    area.settle();
    let t1 = area.now_ns();
    area.shutdown();
    t1.saturating_sub(t0)
}

/// Static: kill the staging area and cold-start N+1 daemons through the
/// launcher (sampled `srun` overhead + bootstrap), measuring until the
/// fresh group has settled.
fn static_resize_ns(n: usize, rng: &mut impl Rng) -> u64 {
    let mut area = StagingArea::new(hpcsim::ClusterConfig::aries());
    let launch = hpcsim::fabric::presets::launch();
    // Kill + relaunch: the job manager charge happens before daemons run.
    let srun = launch.sample_srun_ns(rng.random::<f64>())
        + launch.bootstrap_per_proc_ns * (n as u64 + 1);
    let t0 = area.shared().max_clock_ns();
    area.launch(n + 1, 4);
    let t1 = area.now_ns();
    area.shutdown();
    srun + t1.saturating_sub(t0)
}
