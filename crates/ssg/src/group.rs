//! Live SSG groups: the SWIM state machine wired to margo RPCs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use margo::{MargoInstance, RpcError};
use na::Address;

use crate::swim::{Event, Status, SwimConfig, SwimState, Update};

/// Group configuration.
#[derive(Debug, Clone, Copy)]
pub struct SsgConfig {
    /// Virtual duration of one SWIM protocol period.
    pub period_ns: u64,
    /// Real-time liveness timeout for one probe RPC.
    pub ping_timeout: Duration,
    /// Extra direct-ping attempts before falling back to indirect
    /// probing. One retry makes a round tolerate a single lost
    /// request/reply without spending suspicion budget.
    pub ping_retries: u32,
    /// Number of helpers asked during indirect probing.
    pub pingreq_k: usize,
    /// Protocol constants passed to the state machine.
    pub swim: SwimConfig,
}

impl Default for SsgConfig {
    fn default() -> Self {
        Self {
            period_ns: hpcsim::SEC,
            ping_timeout: Duration::from_millis(200),
            ping_retries: 1,
            pingreq_k: 2,
            swim: SwimConfig::default(),
        }
    }
}

#[derive(Serialize, Deserialize)]
struct PingArgs {
    from: Address,
    updates: Vec<Update>,
}

#[derive(Serialize, Deserialize)]
struct PingReply {
    updates: Vec<Update>,
}

#[derive(Serialize, Deserialize)]
struct PingReqArgs {
    origin: Address,
    target: Address,
    updates: Vec<Update>,
}

#[derive(Serialize, Deserialize)]
struct JoinArgs {
    joiner: Address,
}

#[derive(Serialize, Deserialize)]
struct JoinReply {
    roster: Vec<Update>,
}

#[derive(Serialize, Deserialize)]
struct LeaveArgs {
    leaver: Address,
}

type Observer = Box<dyn Fn(Event) + Send + Sync>;

/// A live SWIM group member.
pub struct SsgGroup {
    name: String,
    margo: Arc<MargoInstance>,
    state: Arc<Mutex<SwimState>>,
    config: SsgConfig,
    start_vns: u64,
    frozen: Arc<AtomicBool>,
    observers: Arc<Mutex<Vec<Observer>>>,
}

impl SsgGroup {
    /// Creates a brand-new group of one (the bootstrap daemon).
    pub fn create(margo: Arc<MargoInstance>, name: &str, config: SsgConfig) -> Arc<Self> {
        let me = margo.address();
        Self::build(margo, name, config, SwimState::new(me, config.swim))
    }

    /// Joins an existing group by contacting one known member — the
    /// address a Colza daemon reads from the connection file.
    pub fn join(
        margo: Arc<MargoInstance>,
        name: &str,
        contact: Address,
        config: SsgConfig,
    ) -> Result<Arc<Self>, RpcError> {
        let me = margo.address();
        let reply: JoinReply =
            margo.forward(contact, &format!("{name}.join"), &JoinArgs { joiner: me })?;
        let mut state = SwimState::new(me, config.swim);
        state.absorb_roster(&reply.roster);
        Ok(Self::build(margo, name, config, state))
    }

    fn build(
        margo: Arc<MargoInstance>,
        name: &str,
        config: SsgConfig,
        state: SwimState,
    ) -> Arc<Self> {
        let state = Arc::new(Mutex::new(state));
        let frozen = Arc::new(AtomicBool::new(false));
        let observers: Arc<Mutex<Vec<Observer>>> = Arc::new(Mutex::new(Vec::new()));
        let start_vns = hpcsim::current().now();

        // ping: apply piggybacked updates, reply with our own.
        {
            let state = Arc::clone(&state);
            let observers = Arc::clone(&observers);
            margo.register(&format!("{name}.ping"), move |args: PingArgs, _ctx| {
                let mut st = state.lock();
                let events: Vec<Event> = args
                    .updates
                    .iter()
                    .filter_map(|&u| st.apply_update(u))
                    .collect();
                let reply = PingReply {
                    updates: st.take_piggyback(),
                };
                drop(st);
                notify(&observers, &events);
                Ok(reply)
            });
        }

        // ping-req: probe the target on behalf of the origin.
        {
            let state = Arc::clone(&state);
            let margo2 = Arc::downgrade(&margo);
            let name2 = name.to_string();
            let timeout = config.ping_timeout;
            margo.register(&format!("{name}.pingreq"), move |args: PingReqArgs, _ctx| {
                let Some(margo) = margo2.upgrade() else {
                    return Err("instance gone".to_string());
                };
                let ping = PingArgs {
                    from: args.origin,
                    updates: args.updates,
                };
                let ok: Result<PingReply, _> = margo.forward_timeout(
                    args.target,
                    &format!("{name2}.ping"),
                    &ping,
                    Some(timeout),
                );
                match ok {
                    Ok(reply) => {
                        let mut st = state.lock();
                        for u in &reply.updates {
                            st.apply_update(*u);
                        }
                        Ok(true)
                    }
                    Err(_) => Ok(false),
                }
            });
        }

        // join: add the member (unless frozen) and hand back the roster.
        {
            let state = Arc::clone(&state);
            let frozen = Arc::clone(&frozen);
            let observers = Arc::clone(&observers);
            margo.register(&format!("{name}.join"), move |args: JoinArgs, _ctx| {
                if frozen.load(Ordering::Acquire) {
                    return Err("group frozen: retry after current iteration".to_string());
                }
                let mut st = state.lock();
                let ev = st.local_join(args.joiner);
                let reply = JoinReply { roster: st.roster() };
                drop(st);
                if let Some(ev) = ev {
                    notify(&observers, &[ev]);
                }
                Ok(reply)
            });
        }

        // leave: record the graceful departure.
        {
            let state = Arc::clone(&state);
            let frozen = Arc::clone(&frozen);
            let observers = Arc::clone(&observers);
            margo.register(&format!("{name}.leave"), move |args: LeaveArgs, _ctx| {
                if frozen.load(Ordering::Acquire) {
                    return Err("group frozen: retry after current iteration".to_string());
                }
                let mut st = state.lock();
                let ev = st.local_leave(args.leaver);
                drop(st);
                if let Some(ev) = ev {
                    notify(&observers, &[ev]);
                }
                Ok(())
            });
        }

        Arc::new(Self {
            name: name.to_string(),
            margo,
            state,
            config,
            start_vns,
            frozen,
            observers,
        })
    }

    /// Our address.
    pub fn address(&self) -> Address {
        self.margo.address()
    }

    /// The current (eventually consistent) view: sorted live addresses.
    pub fn view(&self) -> Vec<Address> {
        self.state.lock().view()
    }

    /// A stable hash of the view (2PC comparisons).
    pub fn view_epoch(&self) -> u64 {
        self.state.lock().view_epoch()
    }

    /// Registers a membership-change observer.
    pub fn observe(&self, cb: impl Fn(Event) + Send + Sync + 'static) {
        self.observers.lock().push(Box::new(cb));
    }

    /// Freezes membership: joins and graceful leaves are refused until
    /// [`SsgGroup::unfreeze`]. Colza calls this from `activate`.
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::Release);
    }

    /// Lifts a freeze (Colza's `deactivate`).
    pub fn unfreeze(&self) {
        self.frozen.store(false, Ordering::Release);
    }

    /// Whether the group is currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// Runs one SWIM protocol period: merges the virtual clock forward by
    /// one period, expires suspicions, probes one member (with indirect
    /// ping-req fallback), and exchanges piggybacked updates.
    ///
    /// Use this when gossip is the clock-driving activity (an idle
    /// staging area; the Fig. 4 harness). A busy daemon's service loop
    /// uses [`SsgGroup::tick_quiet`] instead, so background gossip does
    /// not outrun the work's virtual time.
    pub fn tick(&self) {
        self.tick_inner(true)
    }

    /// One SWIM protocol round *without* advancing the virtual clock:
    /// protocol state (probing, suspicion, dissemination) progresses, but
    /// time attribution is left to the foreground work.
    pub fn tick_quiet(&self) {
        self.tick_inner(false)
    }

    fn tick_inner(&self, advance_clock: bool) {
        let (target, events, round) = {
            let mut st = self.state.lock();
            let (t, ev) = st.advance_round();
            (t, ev, st.round())
        };
        if advance_clock {
            hpcsim::current()
                .clock()
                .merge(self.start_vns + round * self.config.period_ns);
        }
        notify(&self.observers, &events);
        let Some(target) = target else { return };

        let updates = self.state.lock().take_piggyback();
        let ping = PingArgs {
            from: self.address(),
            updates: updates.clone(),
        };
        let mut reply: Result<PingReply, _> = Err(RpcError::Timeout);
        for _ in 0..=self.config.ping_retries {
            hpcsim::trace::counter_add("ssg.ping.sent", 1);
            reply = self.margo.forward_timeout(
                target,
                &format!("{}.ping", self.name),
                &ping,
                Some(self.config.ping_timeout),
            );
            match &reply {
                Ok(_) => break,
                Err(e) if e.is_retryable() => continue,
                Err(_) => break,
            }
        }
        match reply {
            Ok(reply) => {
                hpcsim::trace::counter_add("ssg.ping.ok", 1);
                let events: Vec<Event> = {
                    let mut st = self.state.lock();
                    reply
                        .updates
                        .iter()
                        .filter_map(|&u| st.apply_update(u))
                        .collect()
                };
                notify(&self.observers, &events);
            }
            Err(_) => {
                hpcsim::trace::counter_add("ssg.ping.failed", 1);
                self.probe_indirect(target, updates);
            }
        }
    }

    fn probe_indirect(&self, target: Address, updates: Vec<Update>) {
        let helpers = self
            .state
            .lock()
            .pingreq_candidates(target, self.config.pingreq_k);
        let mut confirmed = false;
        for helper in helpers {
            hpcsim::trace::counter_add("ssg.pingreq.sent", 1);
            let ok: Result<bool, _> = self.margo.forward_timeout(
                helper,
                &format!("{}.pingreq", self.name),
                &PingReqArgs {
                    origin: self.address(),
                    target,
                    updates: updates.clone(),
                },
                Some(self.config.ping_timeout * 2),
            );
            if ok.unwrap_or(false) {
                confirmed = true;
                break;
            }
        }
        if !confirmed {
            let ev = self.state.lock().on_probe_failure(target);
            if let Some(ev) = ev {
                notify(&self.observers, &[ev]);
            }
        }
    }

    /// Gracefully leaves the group: notifies a live peer so the departure
    /// gossips, then the caller may finalize its margo instance.
    pub fn leave(&self) {
        let me = self.address();
        let peers: Vec<Address> = self.view().into_iter().filter(|&a| a != me).collect();
        for peer in peers {
            let ok: Result<(), _> = self.margo.forward_timeout(
                peer,
                &format!("{}.leave", self.name),
                &LeaveArgs { leaver: me },
                Some(self.config.ping_timeout),
            );
            if ok.is_ok() {
                break;
            }
        }
    }

    /// Direct access to the protocol state (admin/diagnostics).
    pub fn with_state<R>(&self, f: impl FnOnce(&SwimState) -> R) -> R {
        f(&self.state.lock())
    }

    /// Injects an update as if it had been gossiped to us (failure
    /// injection in tests).
    pub fn inject_update(&self, addr: Address, incarnation: u64, status: Status) {
        let ev = self
            .state
            .lock()
            .apply_update(Update {
                addr,
                incarnation,
                status,
            });
        if let Some(ev) = ev {
            notify(&self.observers, &[ev]);
        }
    }
}

fn notify(observers: &Arc<Mutex<Vec<Observer>>>, events: &[Event]) {
    if events.is_empty() {
        return;
    }
    if hpcsim::trace::enabled() {
        for ev in events {
            let kind = match ev {
                Event::Joined(_) => "joined",
                Event::Suspected(_) => "suspected",
                Event::Died(_) => "died",
                Event::Left(_) => "left",
                Event::Refuted(_) => "refuted",
            };
            hpcsim::trace::counter_add(format!("ssg.event.{kind}"), 1);
        }
    }
    let obs = observers.lock();
    for ev in events {
        // The suppressed-observer fault rule: a departure event about a
        // named subject is swallowed here, after the SWIM state already
        // applied it. Views still converge — the member is gone — but no
        // observer (and so no reactive repair) ever hears about it. Only
        // anti-entropy scrubbing can heal the resulting silent
        // under-replication (DESIGN.md §10).
        if ev.is_departure()
            && hpcsim::process::try_current()
                .is_some_and(|ctx| ctx.cluster().faults().departure_suppressed(ev.addr().0))
        {
            hpcsim::trace::counter_add("ssg.event.suppressed", 1);
            continue;
        }
        for cb in obs.iter() {
            cb(*ev);
        }
    }
}
