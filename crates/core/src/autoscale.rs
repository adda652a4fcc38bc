//! Automatic resizing (the paper's §IV-B / conclusion item (2)).
//!
//! The paper lists several elasticity triggers — user-driven, scheduler-
//! driven, and *application-driven*: grow the staging area when analysis
//! can no longer keep up with the simulation, so iteration time stays
//! bounded (their Fig. 10 argument). This module is that trigger: a small
//! controller that watches per-iteration `execute` durations and decides
//! when to request more (or fewer) staging processes.
//!
//! The controller is deliberately mechanism-agnostic: it returns
//! [`ScaleDecision`]s; the embedding (job script, simulation, admin tool)
//! performs the actual node allocation, exactly as §II-F describes.
//!
//! When the decision is [`ScaleDecision::Shrink`], the embedding must
//! still pick *which* servers to retire. [`drain_aware_victims`] makes
//! that choice drain-aware: it scrapes each candidate's staged-byte load
//! over `colza.admin.metrics` and nominates the least-loaded servers, so
//! the departure drain (which pushes every held block to its new ring
//! owners) moves as few bytes as possible.

use std::collections::BTreeSet;

use na::Address;
use ssg::Event;

use crate::admin::AdminClient;
use crate::protocol::{MetricsReport, ServerLifecycle, TenancyConfig, TenantId};

/// Configuration of the feedback controller.
#[derive(Debug, Clone, Copy)]
pub struct AutoScaleConfig {
    /// Keep per-iteration analysis time at or under this target.
    pub target_ns: u64,
    /// Grow when the smoothed time exceeds `target * grow_factor`.
    pub grow_factor: f64,
    /// Shrink when the smoothed time falls under `target * shrink_factor`
    /// (hysteresis: must be well below the grow threshold).
    pub shrink_factor: f64,
    /// Exponential smoothing weight for new samples in `(0, 1]`.
    pub alpha: f64,
    /// Minimum iterations between scaling decisions (lets the effect of
    /// the previous decision show up before acting again — joins also
    /// carry a one-iteration pipeline-init spike that must not trigger
    /// another grow).
    pub cooldown_iters: u32,
    /// Bounds on the staging-area size.
    pub min_servers: usize,
    /// Upper bound on the staging-area size.
    pub max_servers: usize,
}

impl AutoScaleConfig {
    /// A controller keeping analysis under `target_ns` with sane defaults.
    pub fn with_target(target_ns: u64) -> Self {
        Self {
            target_ns,
            grow_factor: 1.0,
            shrink_factor: 0.35,
            alpha: 0.5,
            cooldown_iters: 2,
            min_servers: 1,
            max_servers: usize::MAX,
        }
    }
}

/// What the embedding should do before the next iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the current size.
    Hold,
    /// Add this many servers.
    Grow(usize),
    /// Remove this many servers (via the admin leave RPC).
    Shrink(usize),
}

/// The feedback controller.
#[derive(Debug)]
pub struct AutoScaler {
    cfg: AutoScaleConfig,
    smoothed_ns: Option<f64>,
    cooldown: u32,
}

impl AutoScaler {
    /// Creates a controller.
    pub fn new(cfg: AutoScaleConfig) -> Self {
        assert!(cfg.alpha > 0.0 && cfg.alpha <= 1.0);
        assert!(cfg.shrink_factor < cfg.grow_factor);
        Self {
            cfg,
            smoothed_ns: None,
            cooldown: 0,
        }
    }

    /// The current smoothed execute time, if any samples arrived.
    pub fn smoothed_ns(&self) -> Option<u64> {
        self.smoothed_ns.map(|s| s as u64)
    }

    /// Feeds one iteration's `execute` duration and the current server
    /// count; returns the decision for the next iteration.
    ///
    /// Join iterations (where a fresh server pays pipeline init) should
    /// be passed with `had_join = true`; their spike is excluded from the
    /// smoothed signal, as the paper excludes them when reading Fig. 10.
    pub fn observe(&mut self, execute_ns: u64, servers: usize, had_join: bool) -> ScaleDecision {
        let decision = self.observe_inner(execute_ns, servers, had_join);
        Self::count_decision(&decision);
        decision
    }

    fn observe_inner(&mut self, execute_ns: u64, servers: usize, had_join: bool) -> ScaleDecision {
        if !had_join {
            let s = self.smoothed_ns.unwrap_or(execute_ns as f64);
            self.smoothed_ns =
                Some(s * (1.0 - self.cfg.alpha) + execute_ns as f64 * self.cfg.alpha);
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return ScaleDecision::Hold;
        }
        let Some(smoothed) = self.smoothed_ns else {
            return ScaleDecision::Hold;
        };
        let target = self.cfg.target_ns as f64;
        if smoothed > target * self.cfg.grow_factor && servers < self.cfg.max_servers {
            self.cooldown = self.cfg.cooldown_iters;
            // Proportional growth: how many servers short are we, assuming
            // near-linear strong scaling (capped at doubling per step)?
            let deficit = (smoothed / target).ceil() as usize;
            let add = deficit
                .saturating_sub(1)
                .clamp(1, servers.max(1))
                .min(self.cfg.max_servers - servers);
            return ScaleDecision::Grow(add);
        }
        if smoothed < target * self.cfg.shrink_factor && servers > self.cfg.min_servers {
            self.cooldown = self.cfg.cooldown_iters;
            return ScaleDecision::Shrink(1.min(servers - self.cfg.min_servers));
        }
        ScaleDecision::Hold
    }

    /// Feeds one multi-tenant round: per-tenant `execute` durations are
    /// summed into the aggregate-demand signal the controller scales on.
    /// A tenant mix where one pipeline lags and another idles thus grows
    /// the pool exactly when their *total* demand outruns the target —
    /// the shared-pool reading of the paper's Fig. 10 argument.
    pub fn observe_aggregate(
        &mut self,
        per_tenant_ns: &[u64],
        servers: usize,
        had_join: bool,
    ) -> ScaleDecision {
        let total: u64 = per_tenant_ns
            .iter()
            .fold(0u64, |acc, &ns| acc.saturating_add(ns));
        self.observe(total, servers, had_join)
    }

    /// Feeds a *failed* iteration (no duration to learn from).
    ///
    /// A retryable failure ([`crate::error::ColzaError::is_retryable`])
    /// means the staging area is churning — a member died or the view is
    /// catching up; resizing on top of that churn would only add more.
    /// The controller holds and re-arms its cooldown so the first few
    /// post-recovery iterations can't trigger a panic grow. A fatal
    /// failure additionally discards the smoothed signal: whatever comes
    /// back up may have a very different performance profile.
    pub fn observe_failure(&mut self, retryable: bool) -> ScaleDecision {
        self.cooldown = self.cooldown.max(self.cfg.cooldown_iters.max(1));
        if !retryable {
            self.smoothed_ns = None;
        }
        let decision = ScaleDecision::Hold;
        Self::count_decision(&decision);
        decision
    }

    /// Counts the decision in the trace (no-op outside a traced process).
    fn count_decision(decision: &ScaleDecision) {
        let name = match decision {
            ScaleDecision::Hold => "autoscale.hold",
            ScaleDecision::Grow(_) => "autoscale.grow",
            ScaleDecision::Shrink(_) => "autoscale.shrink",
        };
        hpcsim::trace::counter_add(name, 1);
    }
}

/// What the supervisor wants the embedding to do about a membership
/// event it observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorAction {
    /// The member crashed: spawn a replacement daemon (via the normal
    /// join path) to restore the staging area to its intended size. The
    /// scrubber then re-replicates the newcomer's share of the data.
    Replace(Address),
    /// Voluntary, expected, or already-handled departure — or a
    /// non-departure event. Nothing to do.
    Ignore,
}

/// Crash-vs-leave classifier for staging-area departures (the
/// self-healing companion to the [`AutoScaler`], DESIGN.md §10).
///
/// The scaler decides *how many* servers the pool should have; the
/// supervisor keeps it there when members vanish without being asked.
/// SWIM reports two departure flavours: `Left` (graceful, announced) and
/// `Died` (declared dead by failure detection). A `Died` alone is not
/// proof of a crash — a shrink victim that was asked to leave may be
/// declared dead if its goodbye races the detector — so the embedding
/// registers intended departures with [`expect_leave`](Self::expect_leave)
/// before issuing the leave RPC, and only *unexpected* deaths yield
/// [`SupervisorAction::Replace`].
///
/// The supervisor is pure decision logic, like the scaler: the embedding
/// performs the actual spawn. Each death is replaced at most once.
#[derive(Debug, Default)]
pub struct Supervisor {
    /// Members we asked to leave (shrink victims); their departure —
    /// even if SWIM flags it as a death — is voluntary.
    expected_leaves: BTreeSet<u64>,
    /// Deaths already answered with a `Replace`, so a re-delivered or
    /// gossip-duplicated death event cannot double-spawn.
    replaced: BTreeSet<u64>,
    /// Members currently under SWIM suspicion.
    suspects: BTreeSet<u64>,
}

impl Supervisor {
    /// Creates a supervisor with no expected departures.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an intended departure (call before the admin leave
    /// RPC): `victim`'s death or leave will not trigger a replacement.
    pub fn expect_leave(&mut self, victim: Address) {
        self.expected_leaves.insert(victim.0);
    }

    /// Whether `addr`'s departure is currently expected.
    pub fn is_expected_leave(&self, addr: Address) -> bool {
        self.expected_leaves.contains(&addr.0)
    }

    /// Feeds one membership event; returns what the embedding should do.
    ///
    /// Counters (in the caller's trace): `autoscale.supervisor.replace`
    /// per crash replacement, `autoscale.supervisor.voluntary` per
    /// graceful or expected departure.
    pub fn observe(&mut self, ev: &Event) -> SupervisorAction {
        match *ev {
            Event::Joined(a) => {
                // A fresh member (possibly our replacement) is in: any
                // stale state about this pid no longer applies.
                self.suspects.remove(&a.0);
                self.replaced.remove(&a.0);
                SupervisorAction::Ignore
            }
            Event::Suspected(a) => {
                self.suspects.insert(a.0);
                SupervisorAction::Ignore
            }
            Event::Refuted(a) => {
                self.suspects.remove(&a.0);
                SupervisorAction::Ignore
            }
            Event::Left(a) => {
                self.suspects.remove(&a.0);
                self.expected_leaves.remove(&a.0);
                hpcsim::trace::counter_add("autoscale.supervisor.voluntary", 1);
                SupervisorAction::Ignore
            }
            Event::Died(a) => {
                self.suspects.remove(&a.0);
                if self.expected_leaves.remove(&a.0) {
                    // A shrink victim whose goodbye lost the race with
                    // the failure detector: voluntary, not a crash.
                    hpcsim::trace::counter_add("autoscale.supervisor.voluntary", 1);
                    return SupervisorAction::Ignore;
                }
                if !self.replaced.insert(a.0) {
                    return SupervisorAction::Ignore;
                }
                hpcsim::trace::counter_add("autoscale.supervisor.replace", 1);
                SupervisorAction::Replace(a)
            }
        }
    }

    /// The peer-assigned lifecycle override for `addr`, if any: `Suspect`
    /// while under SWIM suspicion, `Dead` once replaced. Members report
    /// their own `Joining`/`Ready`/`Draining` states over
    /// `colza.admin.metrics`; a server that cannot answer has no say in
    /// whether it is suspect or dead, so those two come from here.
    pub fn lifecycle_of(&self, addr: Address) -> Option<ServerLifecycle> {
        if self.replaced.contains(&addr.0) {
            Some(ServerLifecycle::Dead)
        } else if self.suspects.contains(&addr.0) {
            Some(ServerLifecycle::Suspect)
        } else {
            None
        }
    }
}

/// Picks the `n` servers whose departure costs the least drain traffic:
/// the candidates holding the fewest staged bytes. Ties break toward the
/// *later* member (never the contact/compositing root at rank 0), and the
/// ordering is total, so the same loads always nominate the same victims.
///
/// Servers that fail to answer the metrics scrape are treated as
/// maximally loaded — a server we cannot reach is the wrong one to ask
/// for a graceful, fully-drained departure.
///
/// Each nomination bumps the `autoscale.victim.drain_aware` counter (and
/// `autoscale.victim.bytes` by the victim's staged load) in the caller's
/// trace.
pub fn drain_aware_victims(admin: &AdminClient, members: &[Address], n: usize) -> Vec<Address> {
    let loads: Vec<(Address, u64)> = members
        .iter()
        .map(|&m| (m, admin.metrics(m).map_or(u64::MAX, |r| r.staged_bytes)))
        .collect();
    let victims = select_victims(&loads, n);
    for &v in &victims {
        hpcsim::trace::counter_add("autoscale.victim.drain_aware", 1);
        if let Some(&(_, bytes)) = loads.iter().find(|(m, _)| *m == v) {
            if bytes != u64::MAX {
                hpcsim::trace::counter_add("autoscale.victim.bytes", bytes);
            }
        }
    }
    victims
}

/// A server's drain cost weighted by *who* holds its bytes: each
/// tenant's staged bytes are multiplied by its priority-class weight, so
/// retiring a server full of Gold-tenant data costs more than one full
/// of Bronze. Falls back to raw `staged_bytes` when the report carries
/// no per-tenant section (a pre-tenancy peer).
pub fn tenant_weighted_load(report: &MetricsReport, tenancy: &TenancyConfig) -> u64 {
    if report.tenants.is_empty() {
        return report.staged_bytes;
    }
    report.tenants.iter().fold(0u64, |acc, t| {
        let weight = tenancy
            .config_for(&TenantId::new(t.tenant.clone()))
            .priority
            .weight();
        acc.saturating_add(t.staged_bytes.saturating_mul(weight))
    })
}

/// [`drain_aware_victims`], weighted by per-tenant staged bytes: the
/// shrink victims are the servers whose departure displaces the least
/// *priority-weighted* data, so high-class tenants' blocks move last.
/// Same determinism and unreachable-server rules as the drain-aware
/// variant; each nomination bumps `autoscale.victim.tenant_aware`.
pub fn tenant_aware_victims(
    admin: &AdminClient,
    members: &[Address],
    n: usize,
    tenancy: &TenancyConfig,
) -> Vec<Address> {
    let loads: Vec<(Address, u64)> = members
        .iter()
        .map(|&m| {
            (
                m,
                admin
                    .metrics(m)
                    .map_or(u64::MAX, |r| tenant_weighted_load(&r, tenancy)),
            )
        })
        .collect();
    let victims = select_victims(&loads, n);
    for &v in &victims {
        hpcsim::trace::counter_add("autoscale.victim.tenant_aware", 1);
        if let Some(&(_, cost)) = loads.iter().find(|(m, _)| *m == v) {
            if cost != u64::MAX {
                hpcsim::trace::counter_add("autoscale.victim.weighted_bytes", cost);
            }
        }
    }
    victims
}

/// The pure core of [`drain_aware_victims`]: given `(server, staged
/// bytes)` pairs in member order, returns the `n` cheapest departures.
pub fn select_victims(loads: &[(Address, u64)], n: usize) -> Vec<Address> {
    let mut ranked: Vec<(usize, Address, u64)> = loads
        .iter()
        .enumerate()
        .map(|(i, &(m, b))| (i, m, b))
        .collect();
    // Cheapest first; among equals prefer the highest member rank, so
    // rank 0 (the bootstrap contact and compositing root) goes last.
    ranked.sort_by(|a, b| a.2.cmp(&b.2).then(b.0.cmp(&a.0)));
    ranked.into_iter().take(n).map(|(_, m, _)| m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler(target_ms: u64) -> AutoScaler {
        AutoScaler::new(AutoScaleConfig {
            cooldown_iters: 0,
            ..AutoScaleConfig::with_target(target_ms * 1_000_000)
        })
    }

    #[test]
    fn holds_when_on_target() {
        let mut s = scaler(10);
        for _ in 0..5 {
            assert_eq!(s.observe(9_000_000, 4, false), ScaleDecision::Hold);
        }
    }

    #[test]
    fn grows_when_over_target() {
        let mut s = scaler(10);
        s.observe(25_000_000, 2, false);
        match s.observe(25_000_000, 2, false) {
            ScaleDecision::Grow(n) => assert!(n >= 1),
            d => panic!("expected growth, got {d:?}"),
        }
    }

    #[test]
    fn growth_is_proportional_and_capped() {
        let mut s = scaler(10);
        // 4x over target: wants several servers, but never more than
        // doubling.
        s.observe(40_000_000, 2, false);
        let d = s.observe(40_000_000, 2, false);
        assert_eq!(d, ScaleDecision::Grow(2));
    }

    #[test]
    fn shrinks_when_far_under_target() {
        let mut s = scaler(10);
        for _ in 0..4 {
            s.observe(1_000_000, 4, false);
        }
        assert_eq!(s.observe(1_000_000, 4, false), ScaleDecision::Shrink(1));
    }

    #[test]
    fn join_spikes_are_excluded_from_the_signal() {
        let mut s = scaler(10);
        s.observe(9_000_000, 2, false);
        // A 3 s pipeline-init spike on the join iteration must not
        // trigger growth.
        assert_eq!(s.observe(3_000_000_000, 3, true), ScaleDecision::Hold);
        assert_eq!(s.observe(9_000_000, 3, false), ScaleDecision::Hold);
    }

    #[test]
    fn cooldown_spaces_decisions() {
        let mut s = AutoScaler::new(AutoScaleConfig {
            cooldown_iters: 2,
            ..AutoScaleConfig::with_target(10_000_000)
        });
        assert!(matches!(s.observe(50_000_000, 2, false), ScaleDecision::Grow(_)));
        // Two iterations of cooldown follow, even though still over.
        assert_eq!(s.observe(50_000_000, 3, false), ScaleDecision::Hold);
        assert_eq!(s.observe(50_000_000, 3, false), ScaleDecision::Hold);
        assert!(matches!(s.observe(50_000_000, 3, false), ScaleDecision::Grow(_)));
    }

    #[test]
    fn failures_hold_and_rearm_cooldown() {
        let mut s = AutoScaler::new(AutoScaleConfig {
            cooldown_iters: 2,
            ..AutoScaleConfig::with_target(10_000_000)
        });
        s.observe(50_000_000, 2, false); // Grow, cooldown = 2
        // A retryable failure during recovery re-arms the cooldown...
        assert_eq!(s.observe_failure(true), ScaleDecision::Hold);
        // ...so two over-target post-recovery iterations still hold.
        assert_eq!(s.observe(50_000_000, 3, false), ScaleDecision::Hold);
        assert_eq!(s.observe(50_000_000, 3, false), ScaleDecision::Hold);
        assert!(matches!(s.observe(50_000_000, 3, false), ScaleDecision::Grow(_)));
        // A fatal failure discards the learned signal entirely.
        assert_eq!(s.observe_failure(false), ScaleDecision::Hold);
        assert_eq!(s.smoothed_ns(), None);
    }

    #[test]
    fn respects_size_bounds() {
        let mut s = AutoScaler::new(AutoScaleConfig {
            cooldown_iters: 0,
            min_servers: 2,
            max_servers: 4,
            ..AutoScaleConfig::with_target(10_000_000)
        });
        for _ in 0..3 {
            s.observe(100_000_000, 4, false);
        }
        assert_eq!(s.observe(100_000_000, 4, false), ScaleDecision::Hold, "at max");
        let mut s2 = AutoScaler::new(AutoScaleConfig {
            cooldown_iters: 0,
            min_servers: 2,
            max_servers: 4,
            ..AutoScaleConfig::with_target(10_000_000)
        });
        for _ in 0..3 {
            s2.observe(100_000, 2, false);
        }
        assert_eq!(s2.observe(100_000, 2, false), ScaleDecision::Hold, "at min");
    }

    #[test]
    fn aggregate_demand_drives_growth() {
        let mut s = scaler(10);
        // Two tenants each under target alone, together well over it.
        s.observe_aggregate(&[8_000_000, 8_000_000, 9_000_000], 2, false);
        match s.observe_aggregate(&[8_000_000, 8_000_000, 9_000_000], 2, false) {
            ScaleDecision::Grow(n) => assert!(n >= 1),
            d => panic!("expected growth on aggregate demand, got {d:?}"),
        }
    }

    #[test]
    fn tenant_weighted_load_prices_by_class() {
        use crate::protocol::{PriorityClass, TenantConfig};
        use store::TenantUsage;
        let usage = |tenant: &str, bytes: u64| TenantUsage {
            tenant: tenant.to_string(),
            staged_bytes: bytes,
            decoded_bytes: bytes,
            blocks: 1,
        };
        let report = MetricsReport {
            pid: 0,
            enabled: false,
            staged_bytes: 300,
            decoded_bytes: 300,
            tenants: vec![usage("batch", 200), usage("prod", 100)],
            lifecycle: ServerLifecycle::Ready,
            under_replicated_blocks: 0,
            orphan_blocks: 0,
            pending_handoff: 0,
            scrub_passes: 0,
            counters: Vec::new(),
        };
        let tenancy = TenancyConfig::enforcing()
            .with_tenant(
                "prod",
                TenantConfig {
                    priority: PriorityClass::Gold,
                    ..TenantConfig::default()
                },
            )
            .with_tenant(
                "batch",
                TenantConfig {
                    priority: PriorityClass::Bronze,
                    ..TenantConfig::default()
                },
            );
        // 200 Bronze bytes (×1) + 100 Gold bytes (×4) = 600.
        assert_eq!(tenant_weighted_load(&report, &tenancy), 600);
        // No per-tenant section: fall back to raw staged bytes.
        let bare = MetricsReport {
            tenants: Vec::new(),
            ..report
        };
        assert_eq!(tenant_weighted_load(&bare, &tenancy), 300);
    }

    #[test]
    fn supervisor_replaces_crashes_exactly_once() {
        let mut sup = Supervisor::new();
        assert_eq!(
            sup.observe(&Event::Died(Address(3))),
            SupervisorAction::Replace(Address(3))
        );
        // Gossip may re-deliver the same death: never double-spawn.
        assert_eq!(sup.observe(&Event::Died(Address(3))), SupervisorAction::Ignore);
        assert_eq!(sup.lifecycle_of(Address(3)), Some(ServerLifecycle::Dead));
        // Once the replacement (same pid in a restart-style world) joins,
        // the slate is clean and a later crash is replaced again.
        assert_eq!(sup.observe(&Event::Joined(Address(3))), SupervisorAction::Ignore);
        assert_eq!(sup.lifecycle_of(Address(3)), None);
        assert_eq!(
            sup.observe(&Event::Died(Address(3))),
            SupervisorAction::Replace(Address(3))
        );
    }

    #[test]
    fn supervisor_ignores_voluntary_departures() {
        let mut sup = Supervisor::new();
        // A graceful leave needs no registration.
        assert_eq!(sup.observe(&Event::Left(Address(1))), SupervisorAction::Ignore);
        // A shrink victim declared dead before its goodbye propagates is
        // still voluntary — the embedding registered the intent.
        sup.expect_leave(Address(2));
        assert!(sup.is_expected_leave(Address(2)));
        assert_eq!(sup.observe(&Event::Died(Address(2))), SupervisorAction::Ignore);
        assert!(!sup.is_expected_leave(Address(2)));
        // The expectation is consumed: the *next* death of that pid (a
        // replacement that crashed) is a real crash.
        assert_eq!(
            sup.observe(&Event::Died(Address(2))),
            SupervisorAction::Replace(Address(2))
        );
    }

    #[test]
    fn supervisor_tracks_suspicion_lifecycle() {
        let mut sup = Supervisor::new();
        assert_eq!(sup.observe(&Event::Suspected(Address(5))), SupervisorAction::Ignore);
        assert_eq!(sup.lifecycle_of(Address(5)), Some(ServerLifecycle::Suspect));
        assert_eq!(sup.observe(&Event::Refuted(Address(5))), SupervisorAction::Ignore);
        assert_eq!(sup.lifecycle_of(Address(5)), None);
        // Suspicion that hardens into death escalates to Dead.
        sup.observe(&Event::Suspected(Address(5)));
        sup.observe(&Event::Died(Address(5)));
        assert_eq!(sup.lifecycle_of(Address(5)), Some(ServerLifecycle::Dead));
    }

    #[test]
    fn victims_are_least_loaded_first() {
        let loads = [
            (Address(0), 500),
            (Address(1), 100),
            (Address(2), 300),
            (Address(3), 200),
        ];
        assert_eq!(select_victims(&loads, 1), vec![Address(1)]);
        assert_eq!(select_victims(&loads, 2), vec![Address(1), Address(3)]);
        assert_eq!(select_victims(&loads, 9).len(), loads.len());
    }

    #[test]
    fn victim_ties_spare_the_root() {
        // All equally loaded: rank 0 must be nominated last.
        let loads = [(Address(0), 64), (Address(1), 64), (Address(2), 64)];
        assert_eq!(select_victims(&loads, 2), vec![Address(2), Address(1)]);
        assert_eq!(
            select_victims(&loads, 3),
            vec![Address(2), Address(1), Address(0)]
        );
    }

    #[test]
    fn unreachable_servers_are_never_preferred() {
        let loads = [(Address(0), u64::MAX), (Address(1), 1 << 30)];
        assert_eq!(select_victims(&loads, 1), vec![Address(1)]);
    }
}
