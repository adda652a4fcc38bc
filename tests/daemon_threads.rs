//! A stopped daemon must give its OS threads back (margo pools, the
//! progress loop, MoNA's workers). The count is process-wide, so this
//! test lives alone in its binary.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use colza::daemon::{launch_group, settle_views};
use colza::{ColzaDaemon, DaemonConfig};
use na::Fabric;

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn stopped_daemons_release_their_threads() {
    let cluster = hpcsim::Cluster::new(hpcsim::ClusterConfig::aries());
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let conn = std::env::temp_dir().join(format!("colza-threads-{}.addrs", std::process::id()));
    std::fs::remove_file(&conn).ok();
    let cfg = DaemonConfig::new(conn);
    let mut daemons = launch_group(&cluster, &fabric, 2, 1, 0, &cfg);
    let baseline = os_threads();

    for _ in 0..8 {
        daemons.push(ColzaDaemon::spawn(&cluster, &fabric, 2, cfg.clone()));
        settle_views(&daemons, 3);
        assert!(os_threads() > baseline, "a running daemon owns threads");
        daemons.pop().expect("the third daemon").stop();
        settle_views(&daemons, 2);
    }

    // Pool workers exit on their own once the last reference to their
    // pool drops; give them a bounded moment.
    let deadline = Instant::now() + Duration::from_secs(10);
    while os_threads() > baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        os_threads(),
        baseline,
        "8 spawn/stop cycles must return the thread count to its baseline"
    );
    for d in daemons {
        d.stop();
    }
}
