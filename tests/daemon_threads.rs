//! A stopped daemon must give its OS threads back (margo pools, the
//! progress loop, MoNA's workers), a dropped client session its margo
//! threads, and the `StagingArea` harness must clean up after itself.
//! The thread count is process-wide, so all of this is one test, alone
//! in its binary, running its checks in turn.
#![cfg(target_os = "linux")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use colza::StagingArea;
use hpcsim::ClusterConfig;

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// Pool workers exit on their own once the last reference to their pool
/// drops; gives them a bounded moment, then demands the baseline.
fn assert_threads_return_to(baseline: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while os_threads() > baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(os_threads(), baseline, "{what}");
}

#[test]
fn stopped_daemons_release_their_threads() {
    let idle = os_threads();
    spawn_stop_cycles_release_their_threads();
    area_lifecycle_leaves_no_thread_and_no_connection_file(idle);
    dropped_session_releases_its_threads();
    concurrent_areas_never_share_a_connection_file();
    tick_until_panics_with_its_label_instead_of_hanging();
}

fn spawn_stop_cycles_release_their_threads() {
    let mut area = StagingArea::new(ClusterConfig::aries());
    area.launch(2, 1);
    let baseline = os_threads();

    for _ in 0..8 {
        area.grow_on(&[2]);
        area.settle();
        assert!(os_threads() > baseline, "a running daemon owns threads");
        area.stop(2);
        area.settle();
    }
    assert_threads_return_to(
        baseline,
        "8 spawn/stop cycles must return the thread count to its baseline",
    );
    area.shutdown();
}

/// `launch → grow(1) → kill(0) → shutdown` returns the process to
/// `idle`, the thread count it had before any area existed, and leaves
/// no connection file behind.
fn area_lifecycle_leaves_no_thread_and_no_connection_file(idle: usize) {
    let mut area = StagingArea::new(ClusterConfig::aries());
    let conn = area.config().connection_file.clone();
    area.launch(2, 1);
    assert!(
        conn.exists(),
        "daemons bootstrap through the connection file"
    );
    area.grow(1);
    area.settle();
    area.kill(0);
    area.shutdown();
    assert!(!conn.exists(), "shutdown must remove {conn:?}");
    assert_threads_return_to(idle, "a shut-down area must give every daemon thread back");
}

/// A session is a client process with no thread of its own: creating
/// one, running a call in it and dropping it gives back every thread its
/// margo instance started, and ends the process.
fn dropped_session_releases_its_threads() {
    let mut area = StagingArea::new(ClusterConfig::aries());
    area.launch(1, 1);
    let contact = area.contact();
    let baseline = os_threads();

    let sim = area.session("sim", 8);
    assert!(os_threads() > baseline, "a session's margo owns threads");
    let view = sim.run(|s| s.client.view_from(contact).unwrap());
    assert_eq!(view, vec![contact]);
    let pid = sim.ctx.pid();
    assert!(area.shared().is_alive(pid));
    drop(sim);
    assert!(
        !area.shared().is_alive(pid),
        "dropping a session ends its process"
    );
    assert_threads_return_to(baseline, "a dropped session must give its threads back");
    area.shutdown();
}

/// Two areas launched at the same time in one process bootstrap through
/// different files, so neither group ever sees the other's members.
fn concurrent_areas_never_share_a_connection_file() {
    let both_up = Barrier::new(2);
    let launch = || {
        let mut area = StagingArea::new(ClusterConfig::aries());
        area.launch(2, 1);
        both_up.wait();
        let conn = area.config().connection_file.clone();
        let views: Vec<usize> = area.daemons().iter().map(|d| d.view().len()).collect();
        both_up.wait();
        area.shutdown();
        (conn, views)
    };
    let ((conn_a, views_a), (conn_b, views_b)) = std::thread::scope(|s| {
        let a = s.spawn(launch);
        let b = s.spawn(launch);
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_ne!(conn_a, conn_b, "concurrent areas shared a connection file");
    assert_eq!(views_a, [2, 2], "area A saw foreign members");
    assert_eq!(views_b, [2, 2], "area B saw foreign members");
}

/// `tick_until` on a predicate that can never hold gives up with the
/// caller's label and the per-daemon views.
fn tick_until_panics_with_its_label_instead_of_hanging() {
    let mut area = StagingArea::harness_driven(ClusterConfig::aries());
    area.launch(1, 1);
    let panic = catch_unwind(AssertUnwindSafe(|| {
        area.tick_until("the moon is made of cheese", |_| false);
    }))
    .expect_err("an unsatisfiable predicate must exhaust the budget");
    let message = panic
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(
        message.contains("the moon is made of cheese"),
        "panic lost its label: {message}"
    );
    assert!(
        message.contains("view size"),
        "panic lost the per-daemon views: {message}"
    );
    area.shutdown();
}
