//! Live SWIM group tests: daemons on a simulated cluster, join/leave
//! propagation, failure detection, freeze semantics.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender};
use margo::MargoInstance;
use na::{Address, Fabric};
use ssg::{Event, SsgConfig, SsgGroup, Status};

enum Cmd {
    Tick,
    Leave,
    Die, // abrupt: finalize margo without leaving
    Stop,
}

struct Daemon {
    group: Arc<SsgGroup>,
    cmd: Sender<Cmd>,
    handle: Option<hpcsim::cluster::SimHandle<()>>,
}

impl Daemon {
    fn addr(&self) -> Address {
        self.group.address()
    }
    fn tick(&self) {
        self.cmd.send(Cmd::Tick).unwrap();
    }
    fn stop(mut self) {
        let _ = self.cmd.send(Cmd::Stop);
        if let Some(h) = self.handle.take() {
            h.join();
        }
    }
}

fn config() -> SsgConfig {
    SsgConfig {
        ping_timeout: Duration::from_millis(60),
        ..Default::default()
    }
}

fn spawn_daemon(
    cluster: &hpcsim::Cluster,
    fabric: &Fabric,
    node: usize,
    contact: Option<Address>,
) -> Daemon {
    let (cmd_tx, cmd_rx) = bounded::<Cmd>(64);
    let (group_tx, group_rx) = bounded(1);
    let fabric = fabric.clone();
    let handle = cluster.spawn("ssg-daemon", node, move || {
        let margo = MargoInstance::init(&fabric);
        let group = match contact {
            None => SsgGroup::create(Arc::clone(&margo), "g", config()),
            Some(c) => SsgGroup::join(Arc::clone(&margo), "g", c, config()).expect("join"),
        };
        group_tx.send(Arc::clone(&group)).unwrap();
        loop {
            match cmd_rx.recv() {
                Ok(Cmd::Tick) => group.tick(),
                Ok(Cmd::Leave) => {
                    group.leave();
                    margo.finalize();
                    break;
                }
                Ok(Cmd::Die) => {
                    margo.finalize();
                    break;
                }
                Ok(Cmd::Stop) | Err(_) => {
                    margo.finalize();
                    break;
                }
            }
        }
        // Drain remaining commands so senders never block.
        while let Ok(c) = cmd_rx.try_recv() {
            if matches!(c, Cmd::Stop) {
                break;
            }
        }
    });
    let group = group_rx.recv().unwrap();
    Daemon {
        group,
        cmd: cmd_tx,
        handle: Some(handle),
    }
}

/// Pumps one round of ticks across all daemons.
fn pump(daemons: &[&Daemon], rounds: usize) {
    for _ in 0..rounds {
        for d in daemons {
            d.tick();
        }
        // Give ping handlers a moment to run (real time, not virtual).
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn join_propagates_to_all_members() {
    let cluster = hpcsim::Cluster::default();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let boot = spawn_daemon(&cluster, &fabric, 0, None);
    let d1 = spawn_daemon(&cluster, &fabric, 1, Some(boot.addr()));
    let d2 = spawn_daemon(&cluster, &fabric, 2, Some(boot.addr()));
    let d3 = spawn_daemon(&cluster, &fabric, 3, Some(d1.addr()));
    let all = [&boot, &d1, &d2, &d3];
    for _ in 0..40 {
        pump(&all, 1);
        if all.iter().all(|d| d.group.view().len() == 4) {
            break;
        }
    }
    let mut expect: Vec<Address> = all.iter().map(|d| d.addr()).collect();
    expect.sort_unstable();
    for d in all {
        assert_eq!(d.group.view(), expect);
    }
    for d in [boot, d1, d2, d3] {
        d.stop();
    }
}

#[test]
fn graceful_leave_disseminates() {
    let cluster = hpcsim::Cluster::default();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let boot = spawn_daemon(&cluster, &fabric, 0, None);
    let d1 = spawn_daemon(&cluster, &fabric, 1, Some(boot.addr()));
    let d2 = spawn_daemon(&cluster, &fabric, 2, Some(boot.addr()));
    pump(&[&boot, &d1, &d2], 10);
    let leaver = d1.addr();
    d1.cmd.send(Cmd::Leave).unwrap();
    for _ in 0..40 {
        pump(&[&boot, &d2], 1);
        if boot.group.view().len() == 2 && d2.group.view().len() == 2 {
            break;
        }
    }
    assert!(!boot.group.view().contains(&leaver));
    assert!(!d2.group.view().contains(&leaver));
    boot.stop();
    d2.stop();
    if let Some(h) = { d1 }.handle.take() {
        h.join();
    }
}

#[test]
fn crashed_member_is_detected_and_removed() {
    let cluster = hpcsim::Cluster::default();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let boot = spawn_daemon(&cluster, &fabric, 0, None);
    let d1 = spawn_daemon(&cluster, &fabric, 1, Some(boot.addr()));
    let d2 = spawn_daemon(&cluster, &fabric, 2, Some(boot.addr()));
    pump(&[&boot, &d1, &d2], 10);
    assert_eq!(boot.group.view().len(), 3);
    let victim = d2.addr();
    d2.cmd.send(Cmd::Die).unwrap(); // no goodbye
    // Suspicion must mature into death after enough rounds.
    for _ in 0..80 {
        pump(&[&boot, &d1], 1);
        if !boot.group.view().contains(&victim) && !d1.group.view().contains(&victim) {
            break;
        }
    }
    assert!(!boot.group.view().contains(&victim), "boot still sees victim");
    assert!(!d1.group.view().contains(&victim), "d1 still sees victim");
    boot.stop();
    d1.stop();
    if let Some(h) = { d2 }.handle.take() {
        h.join();
    }
}

#[test]
fn frozen_group_refuses_joins() {
    let cluster = hpcsim::Cluster::default();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let boot = spawn_daemon(&cluster, &fabric, 0, None);
    boot.group.freeze();
    let contact = boot.addr();
    let f2 = fabric.clone();
    let refused = cluster
        .spawn("late", 5, move || {
            let margo = MargoInstance::init(&f2);
            let r = SsgGroup::join(Arc::clone(&margo), "g", contact, config());
            let refused = r.is_err();
            margo.finalize();
            refused
        })
        .join();
    assert!(refused, "join must be refused while frozen");
    boot.group.unfreeze();
    let late = spawn_daemon(&cluster, &fabric, 5, Some(boot.addr()));
    assert_eq!(late.group.view().len(), 2);
    boot.stop();
    late.stop();
}

#[test]
fn observers_fire_on_membership_changes() {
    let cluster = hpcsim::Cluster::default();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let boot = spawn_daemon(&cluster, &fabric, 0, None);
    let events = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let ev2 = Arc::clone(&events);
    boot.group.observe(move |e| ev2.lock().push(e));
    let d1 = spawn_daemon(&cluster, &fabric, 1, Some(boot.addr()));
    let joined = d1.addr();
    pump(&[&boot, &d1], 5);
    assert!(events.lock().contains(&Event::Joined(joined)));
    boot.stop();
    d1.stop();
}

#[test]
fn suppressed_departure_converges_view_without_observer_events() {
    // The self-healing fault rule (DESIGN.md §10): a named member's
    // departure event is swallowed before observer delivery, so nothing
    // reactive (store repair) fires — yet SWIM itself still removes the
    // member, leaving silent under-replication for the scrubber to find.
    let cluster = hpcsim::Cluster::default();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let boot = spawn_daemon(&cluster, &fabric, 0, None);
    let d1 = spawn_daemon(&cluster, &fabric, 1, Some(boot.addr()));
    let d2 = spawn_daemon(&cluster, &fabric, 2, Some(boot.addr()));
    pump(&[&boot, &d1, &d2], 10);
    assert_eq!(boot.group.view().len(), 3);

    let events = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let ev2 = Arc::clone(&events);
    boot.group.observe(move |e| ev2.lock().push(e));

    let victim = d2.addr();
    cluster.shared().faults().suppress_departure_now(victim.0);
    d2.cmd.send(Cmd::Die).unwrap(); // no goodbye
    for _ in 0..80 {
        pump(&[&boot, &d1], 1);
        if !boot.group.view().contains(&victim) && !d1.group.view().contains(&victim) {
            break;
        }
    }
    // Membership converged: suppression is observer-level only.
    assert!(!boot.group.view().contains(&victim), "view must still converge");
    assert!(!d1.group.view().contains(&victim), "view must still converge");
    // ...but nobody was told.
    assert!(
        !events
            .lock()
            .iter()
            .any(|e| e.is_departure() && e.addr() == victim),
        "suppressed departure must not reach observers"
    );

    // The rule is per-subject: a different member's departure still fires.
    let leaver = d1.addr();
    d1.cmd.send(Cmd::Leave).unwrap();
    for _ in 0..40 {
        pump(&[&boot], 1);
        if !boot.group.view().contains(&leaver) {
            break;
        }
    }
    assert!(
        events
            .lock()
            .iter()
            .any(|e| e.is_departure() && e.addr() == leaver),
        "unsuppressed departures must still be observed"
    );
    boot.stop();
    if let Some(h) = { d2 }.handle.take() {
        h.join();
    }
    if let Some(h) = { d1 }.handle.take() {
        h.join();
    }
}

#[test]
fn injected_suspicion_about_self_is_refuted() {
    let cluster = hpcsim::Cluster::default();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let boot = spawn_daemon(&cluster, &fabric, 0, None);
    let me = boot.addr();
    boot.group.inject_update(me, 0, Status::Suspect);
    // We must still consider ourselves alive (with a bumped incarnation).
    assert!(boot.group.view().contains(&me));
    boot.stop();
}

#[test]
fn observer_events_for_one_member_arrive_in_incarnation_order() {
    let cluster = hpcsim::Cluster::default();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let boot = spawn_daemon(&cluster, &fabric, 0, None);
    let events = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let ev2 = Arc::clone(&events);
    boot.group.observe(move |e| ev2.lock().push(e));

    // Gossip about one member, delivered in protocol order: join,
    // suspicion, refutation at a higher incarnation, then death.
    let x = Address(0xdead_0001);
    boot.group.inject_update(x, 0, Status::Alive);
    boot.group.inject_update(x, 0, Status::Suspect);
    boot.group.inject_update(x, 1, Status::Alive);
    // Stale suspicion from the old incarnation: superseded, no event.
    boot.group.inject_update(x, 0, Status::Suspect);
    boot.group.inject_update(x, 1, Status::Dead);
    // Death is terminal: a later Alive must not resurrect the member.
    boot.group.inject_update(x, 2, Status::Alive);

    let got: Vec<Event> = events
        .lock()
        .iter()
        .copied()
        .filter(|e| e.addr() == x)
        .collect();
    assert_eq!(
        got,
        vec![
            Event::Joined(x),
            Event::Suspected(x),
            Event::Refuted(x),
            Event::Died(x),
        ],
        "stale and post-mortem updates must not surface as events"
    );
    assert!(!boot.group.view().contains(&x));
    boot.stop();
}

#[test]
fn concurrent_death_reports_deliver_exactly_one_died_event() {
    // A crash is routinely detected twice at once: the direct ping path
    // and a ping-req helper both gossip `Dead` for the same incarnation.
    // Observer delivery must collapse the duplicates to one event.
    let cluster = hpcsim::Cluster::default();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let boot = spawn_daemon(&cluster, &fabric, 0, None);
    let events = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let ev2 = Arc::clone(&events);
    boot.group.observe(move |e| ev2.lock().push(e));

    let x = Address(0xdead_0002);
    boot.group.inject_update(x, 3, Status::Alive);

    let barrier = Arc::new(std::sync::Barrier::new(2));
    let reporters: Vec<_> = (0..2)
        .map(|_| {
            let group = Arc::clone(&boot.group);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                group.inject_update(x, 3, Status::Dead);
            })
        })
        .collect();
    for r in reporters {
        r.join().unwrap();
    }

    let died = events
        .lock()
        .iter()
        .filter(|e| matches!(e, Event::Died(a) if *a == x))
        .count();
    assert_eq!(died, 1, "duplicate death reports must deliver exactly once");
    assert!(!boot.group.view().contains(&x));
    boot.stop();
}

#[test]
fn ticks_advance_virtual_time_by_periods() {
    let cluster = hpcsim::Cluster::default();
    let fabric = Fabric::new(Arc::clone(cluster.shared()));
    let boot = spawn_daemon(&cluster, &fabric, 0, None);
    let clock = cluster.shared().clock_of(boot.group.address().pid()).unwrap();
    let before = clock.now();
    pump(&[&boot], 5);
    let after = clock.now();
    assert!(
        after >= before + 4 * SsgConfig::default().period_ns,
        "ticks must move virtual time: {before} -> {after}"
    );
    boot.stop();
}
