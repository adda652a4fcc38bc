//! Store convergence: one executor, five callers (DESIGN.md §10).
//!
//! A *pass* walks the held copies, plans each against a target ring with
//! `store::plan_copy`, and executes the plan — the only code that pushes
//! copies, promotes, demotes or drops. The callers — `commit_activate`,
//! [`repair`](ColzaProvider::repair), [`drain`](ColzaProvider::drain),
//! [`scrub`](ColzaProvider::scrub) and `execute` — only choose the
//! [`Pass`]: the target view, whom they presume to hold a copy already,
//! whether this holder pushes, and the scope (the table in DESIGN.md §10).

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use na::Address;
use store::{BlockSync, HashRing, RingConfig, Role, StoreDigest, StoredBlock};

use super::admit::{block_meta, staged_block};
use super::{ColzaProvider, Placement, ScrubReport};
use crate::backend::StagedBlock;
use crate::codec::CodecId;
use crate::protocol::{DigestArgs, PushBlockArgs};
use crate::retry::{probe_retry, push_retry};
use crate::ColzaError;

/// Peer inventories fetched by a scrub pass.
type Digests = HashMap<Address, StoreDigest>;

/// Whom a pass presumes to hold a copy already, and whether this holder
/// pushes to the owners that do not.
enum Holders<'a> {
    /// Owners under the recorded placement that are still in the target
    /// view; only the mover among them pushes (`store::sync_block`).
    Recorded,
    /// The same presumption, but this holder always pushes: a leaver
    /// cannot wait for the survivors' next commit.
    RecordedLeaver,
    /// Owners whose fetched digest lists the copy. An unreachable owner
    /// is not presumed — pushes are idempotent, so over-offering is
    /// harmless. Always pushes.
    Digests(&'a Digests),
    /// Nobody is verified and nothing is pushed: the pass only corrects
    /// roles, and therefore drops nothing.
    Unverified,
}

/// One convergence pass, as its caller describes it.
struct Pass<'a> {
    /// Names the pass in its trace span.
    label: &'static str,
    /// The view whose ring the holdings converge to.
    members: &'a [Address],
    cfg: RingConfig,
    holders: Holders<'a>,
    /// `Some((pipeline, iteration))` restricts the pass to one
    /// iteration's copies; `None` covers all holdings, and only such a
    /// pass can advance the recorded placement.
    scope: Option<(&'a str, u64)>,
}

/// What a pass changed beyond its [`ScrubReport`], for the caller's own
/// trace counters.
#[derive(Default)]
struct Tally {
    moved_bytes: u64,
    promoted: u64,
    demoted: u64,
}

fn count(name: &str, n: u64) {
    if n > 0 {
        hpcsim::trace::counter_add(name, n);
    }
}

/// Ring parameters of the recorded placement (the default before any
/// commit).
fn recorded_cfg(placement: &Option<Placement>) -> RingConfig {
    placement.as_ref().map(|p| p.cfg).unwrap_or_default()
}

fn digest_holds(digests: &Digests, owner: Address, b: &StoredBlock) -> bool {
    digests.get(&owner).is_some_and(|d| {
        d.contains(
            &b.key.pipeline,
            b.iteration,
            store::copy_hash(b.key.block_id, &b.name),
        )
    })
}

impl ColzaProvider {
    /// The executor: plans every held copy in the pass's scope against
    /// the target ring and applies the plan. The caller holds the
    /// `placement` lock, which serializes passes; the recorded placement
    /// advances only when the pass covered all holdings and every push
    /// landed, so an incomplete pass is re-planned from the same starting
    /// point (pushes are idempotent on the receiver).
    fn converge(
        &self,
        placement: &mut Option<Placement>,
        pass: &Pass<'_>,
        report: &mut ScrubReport,
    ) -> Tally {
        let me = self.margo.address();
        let mut tally = Tally::default();
        let blocks: Vec<StoredBlock> = self
            .store
            .snapshot()
            .into_iter()
            .filter(|b| {
                pass.scope
                    .is_none_or(|(p, it)| b.key.pipeline == p && b.iteration == it)
            })
            .collect();
        if !blocks.is_empty() {
            let mut sp = hpcsim::trace::span("colza", format!("colza.store.{}", pass.label));
            if sp.active() {
                sp.arg("blocks", blocks.len());
                sp.arg("servers", pass.members.len());
            }
            let ring = HashRing::build_in_sim(pass.members, pass.cfg);
            let recorded = match (&pass.holders, placement.as_ref()) {
                (Holders::Recorded | Holders::RecordedLeaver, Some(p)) => {
                    Some(HashRing::build_in_sim(&p.members, p.cfg))
                }
                _ => None,
            };
            let recorded_owners =
                |b: &StoredBlock| recorded.as_ref().map_or(Vec::new(), |r| r.owners(&b.key));
            for b in &blocks {
                let owners = ring.owners(&b.key);
                let sync = match &pass.holders {
                    Holders::Recorded => {
                        store::sync_block(me, &recorded_owners(b), &owners, pass.members)
                    }
                    Holders::RecordedLeaver => {
                        let old = recorded_owners(b);
                        store::plan_copy(me, &owners, |a| old.contains(&a), true)
                    }
                    Holders::Digests(d) => {
                        store::plan_copy(me, &owners, |a| digest_holds(d, a, b), true)
                    }
                    Holders::Unverified => {
                        let mut sync = store::plan_copy(me, &owners, |_| false, false);
                        // Nothing pushed, nobody verified: a copy the ring
                        // places elsewhere is held on as a replica.
                        sync.keep.get_or_insert(Role::Replica);
                        sync
                    }
                };
                let landed = self.push_all(b, &sync.push, report, &mut tally);
                self.settle(b, &sync, landed, report, &mut tally);
            }
        }
        if pass.scope.is_none() && report.failed + report.refused == 0 {
            *placement = Some(Placement {
                members: pass.members.to_vec(),
                cfg: pass.cfg,
            });
        }
        tally
    }

    /// Offers one copy to each target and books every outcome; returns
    /// how many landed.
    fn push_all(
        &self,
        b: &StoredBlock,
        targets: &[(Address, Role)],
        report: &mut ScrubReport,
        tally: &mut Tally,
    ) -> usize {
        let mut landed = 0;
        for &(target, role) in targets {
            match self.send_copy(target, b, role, "colza.store.push") {
                Ok(()) => {
                    landed += 1;
                    report.pushed += 1;
                    tally.moved_bytes += b.data.len() as u64;
                }
                Err(margo::RpcError::Handler(m)) => self.not_landed(b, &m, report),
                Err(_) => self.not_landed(b, "", report),
            }
        }
        landed
    }

    /// Books one copy an owner did not take — the single classifier:
    /// a deterministic staged-byte quota refusal (it would refuse again
    /// on every retry until the tenant's earlier iterations release) or
    /// a transient failure (timeout, dead target).
    fn not_landed(&self, b: &StoredBlock, handler_error: &str, report: &mut ScrubReport) {
        if let Some(ColzaError::QuotaExceeded(_)) = ColzaError::from_reply(handler_error) {
            report.refused += 1;
            hpcsim::trace::counter_add("colza.store.push_refused", 1);
            hpcsim::trace::counter_add(format!("colza.tenant.{}.push_refused", b.tenant), 1);
        } else {
            report.failed += 1;
            hpcsim::trace::counter_add("colza.store.push_failed", 1);
        }
    }

    /// Applies a plan's verdict to the local copy once its pushes were
    /// attempted. A copy the ring places elsewhere is dropped only when
    /// every owner landed or was presumed ([`BlockSync::may_drop`]) —
    /// never trade the last copy away, and
    /// never make a failed pass unrecoverable by removing what the retry
    /// would have to re-push. Until then it stays, demoted: a stale
    /// placement must not be handed to the backend, and `execute`
    /// re-promotes whatever its frozen ring makes primary.
    fn settle(
        &self,
        b: &StoredBlock,
        sync: &BlockSync,
        landed: usize,
        report: &mut ScrubReport,
        tally: &mut Tally,
    ) {
        let (pipeline, it, id, name) = (&b.key.pipeline, b.iteration, b.key.block_id, &b.name);
        let keep = match sync.keep {
            Some(role) => {
                if landed < sync.push.len() {
                    report.under_replicated += 1;
                }
                Some(role)
            }
            None if sync.may_drop(landed) => None,
            None => {
                report.orphans += 1;
                Some(Role::Replica)
            }
        };
        match keep {
            Some(Role::Primary) => {
                if self.store.promote(pipeline, it, id, name) {
                    tally.promoted += 1;
                }
            }
            Some(Role::Replica) => {
                if self.store.demote(pipeline, it, id, name) {
                    tally.demoted += 1;
                }
            }
            None => {
                if self.store.remove(pipeline, it, id, name).is_some() {
                    report.collected += 1;
                }
            }
        }
    }

    /// Commit and repair: converge from the recorded placement to
    /// `members`. Unchanged placement is a no-op, so this is cheap on
    /// every commit.
    pub(super) fn resync(
        &self,
        members: &[Address],
        cfg: RingConfig,
        label: &'static str,
    ) -> ScrubReport {
        let mut report = ScrubReport::default();
        let mut placement = self.placement.lock();
        match placement.as_ref() {
            Some(p) if p.members == members && p.cfg == cfg => return report,
            Some(_) => {}
            // Nothing recorded: whatever this server holds was pushed to
            // it under this very view, so there is nothing to diff from.
            None => {
                *placement = Some(Placement {
                    members: members.to_vec(),
                    cfg,
                });
                return report;
            }
        }
        let pass = Pass {
            label,
            members,
            cfg,
            holders: Holders::Recorded,
            scope: None,
        };
        let tally = self.converge(&mut placement, &pass, &mut report);
        count("colza.store.moved.blocks", report.pushed);
        count("colza.store.moved.bytes", tally.moved_bytes);
        count("colza.store.promoted.blocks", tally.promoted);
        count("colza.store.demoted.blocks", tally.demoted);
        count("colza.store.dropped.blocks", report.collected);
        report
    }

    /// Re-replicates under-replicated blocks against the *current* SSG
    /// view — the crash-repair path, run by the daemon loop after a
    /// death or departure so `execute` can proceed from survivors even
    /// before the next commit.
    pub fn repair(&self) {
        // Counted so chaos tests can assert a *suppressed* departure
        // fired zero reactive repairs while the scrubber still healed.
        hpcsim::trace::counter_add("colza.store.repair.runs", 1);
        let view = self.group.view();
        if view.is_empty() {
            return;
        }
        let cfg = recorded_cfg(&self.placement.lock());
        let report = self.resync(&view, cfg, "repair");
        if report.failed + report.refused > 0 {
            // Incomplete pass: re-arm so the next daemon tick retries.
            // Refused (over-quota) copies re-arm too — the owed copy is
            // re-offered once the tenant's earlier iterations release.
            self.repair_needed.store(true, Ordering::Release);
        }
    }

    /// Pushes every held block to its owners under the view *without*
    /// this server, then drops the local copies — the graceful-shrink
    /// path, run before `leave` so no block rides the leaver down.
    /// Returns whether every copy is safe: the store emptied, or no
    /// survivor exists to push to (the whole group is going away). A
    /// copy whose push failed is kept, so the daemon loops this until it
    /// returns `true` and a failed drain surfaces as a stuck (or
    /// cancelled) departure, not missing data.
    pub fn drain(&self) -> bool {
        let me = self.margo.address();
        // Refuse new admissions from here on: anything admitted after the
        // pass's snapshot would be acknowledged and then lost. `admit`
        // re-checks the flag after its insert, so the flag plus the store
        // mutex leave no window.
        self.draining.store(true, Ordering::SeqCst);
        let survivors: Vec<Address> = self.group.view().into_iter().filter(|&a| a != me).collect();
        if survivors.is_empty() {
            return true;
        }
        let mut report = ScrubReport::default();
        let mut placement = self.placement.lock();
        let pass = Pass {
            label: "drain",
            members: &survivors,
            cfg: recorded_cfg(&placement),
            holders: Holders::RecordedLeaver,
            scope: None,
        };
        let tally = self.converge(&mut placement, &pass, &mut report);
        count("colza.store.drain.blocks", report.pushed);
        count("colza.store.drain.bytes", tally.moved_bytes);
        self.store.is_empty()
    }

    /// Last-resort departure path, run when a drain could not place every
    /// copy with its ring owners: park the leftovers on any reachable
    /// survivor via `colza.store.handoff`, where the scrubber will place
    /// them properly (counted back as `colza.store.scrub.reclaimed`).
    /// Returns whether every leftover was parked — `false` means the
    /// copies really do ride this server down (the old `drain.abandoned`
    /// outcome, now reserved for a leaver that cannot reach anyone).
    pub fn handoff_leftovers(&self) -> bool {
        let me = self.margo.address();
        let survivors: Vec<Address> = self.group.view().into_iter().filter(|&a| a != me).collect();
        let mut all_parked = true;
        for b in self.store.snapshot() {
            let parked = survivors.iter().any(|&s| {
                self.send_copy(s, &b, Role::Replica, "colza.store.handoff")
                    .is_ok()
            });
            if parked {
                hpcsim::trace::counter_add("colza.store.handoff.parked", 1);
                self.store
                    .remove(&b.key.pipeline, b.iteration, b.key.block_id, &b.name);
            } else {
                all_parked = false;
            }
        }
        all_parked
    }

    /// One anti-entropy scrub pass: fetch inventory digests from every
    /// peer in the current SSG view, place any parked handoff copies,
    /// and converge the holdings on the view's ring from what the peers
    /// *provably* hold. The pass backstops every event-driven caller — it
    /// converges the staging area to full replication *however* it
    /// degraded: swallowed membership observations, tolerated quota
    /// refusals, abandoned drains. Runs fine while the group is frozen
    /// (staged data only exists mid-iteration, and freeze only refuses
    /// join/leave); skipped only while this server itself drains out.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let me = self.margo.address();
        let view = self.group.view();
        if self.draining.load(Ordering::SeqCst) || !view.contains(&me) {
            return report;
        }
        let mut placement = self.placement.lock();
        let cfg = recorded_cfg(&placement);
        let mut digests = Digests::new();
        for &peer in view.iter().filter(|&&a| a != me) {
            let got = self.margo.forward_retry(
                peer,
                "colza.store.digest",
                &DigestArgs::default(),
                &probe_retry(),
            );
            match got {
                Ok(d) => {
                    digests.insert(peer, d);
                }
                Err(_) => report.unreachable += 1,
            }
        }
        self.place_parked(&view, cfg, &digests, &mut report);
        let pass = Pass {
            label: "scrub",
            members: &view,
            cfg,
            holders: Holders::Digests(&digests),
            scope: None,
        };
        self.converge(&mut placement, &pass, &mut report);

        report.pass = self.scrub_passes.fetch_add(1, Ordering::AcqRel) + 1;
        self.under_replicated
            .store(report.under_replicated, Ordering::Release);
        self.orphan_gauge.store(report.orphans, Ordering::Release);
        hpcsim::trace::counter_add("colza.store.scrub.pass", 1);
        count("colza.store.scrub.reclaimed", report.reclaimed);
        count("colza.store.scrub.collected", report.collected);
        let clean = report.failed + report.refused + report.unreachable == 0
            && report.under_replicated + report.orphans == 0
            && self.pending_handoff.lock().is_empty();
        if clean {
            // A clean pass proves the holdings match the current view:
            // this server is caught up (Joining → Ready).
            self.caught_up.store(true, Ordering::Release);
        }
        report
    }

    /// Places the parked handoff copies: one this server owns is adopted
    /// through the normal admission path (quota, decode) and replicated
    /// by the sweep that follows like any held copy; one it does not own
    /// is pushed to the owners lacking it.
    /// Anything that did not fully land stays parked for the next pass.
    fn place_parked(
        &self,
        view: &[Address],
        cfg: RingConfig,
        digests: &Digests,
        report: &mut ScrubReport,
    ) {
        let me = self.margo.address();
        let parked: Vec<StoredBlock> = std::mem::take(&mut *self.pending_handoff.lock());
        if parked.is_empty() {
            return;
        }
        let ring = HashRing::build_in_sim(view, cfg);
        let mut requeue = Vec::new();
        for b in parked {
            let sync = store::plan_copy(
                me,
                &ring.owners(&b.key),
                |a| digest_holds(digests, a, &b),
                true,
            );
            let placed = match (sync.keep, self.pipeline(&b.key.pipeline)) {
                (Some(role), Ok(_)) => {
                    let (data, plain) = (b.data.clone(), b.plain.clone());
                    match self.admit(&b.key.pipeline, block_meta(&b), role, data, plain) {
                        Ok(()) => true,
                        Err(e) => {
                            self.not_landed(&b, &e, report);
                            false
                        }
                    }
                }
                // The pipeline was destroyed since the handoff: nothing
                // left to place the copy into.
                (Some(_), Err(_)) => true,
                (None, _) => {
                    self.push_all(&b, &sync.push, report, &mut Tally::default()) == sync.push.len()
                }
            };
            if placed {
                report.reclaimed += 1;
            } else {
                requeue.push(b);
            }
        }
        self.pending_handoff.lock().extend(requeue);
    }

    /// Settles, at `execute` time, which copies of an iteration's blocks
    /// the backend is handed — exactly the primaries under the frozen
    /// placement restricted to members still in the current SSG view —
    /// and returns them decoded, in store key order.
    ///
    /// Two hazards close here. A client that re-routed a `stage` through
    /// a refreshed view mid-iteration can have left a block primary on
    /// both the frozen primary and its successor (the frozen primary was
    /// falsely suspected, or had already recorded the copy before
    /// refusing) — the stale copy is demoted so the block renders once.
    /// Conversely, when the frozen primary died and no repair pass ran,
    /// the surviving successor promotes its replica so `execute` proceeds
    /// instead of rendering a hole. In a healthy iteration the roles
    /// already match the frozen ring and the pass changes nothing.
    ///
    /// The role pass and the selection share one `placement` critical
    /// section, so a concurrent [`repair`](Self::repair) cannot flip a
    /// role between settlement and hand-over.
    pub(super) fn hand_over(
        &self,
        pipeline: &str,
        iteration: u64,
        frozen: &[Address],
        cfg: RingConfig,
    ) -> std::result::Result<Vec<StagedBlock>, String> {
        let current = self.group.view();
        let alive: Vec<Address> = frozen
            .iter()
            .copied()
            .filter(|a| current.contains(a))
            .collect();
        let mut placement = self.placement.lock();
        if !alive.is_empty() {
            let pass = Pass {
                label: "execute",
                members: &alive,
                cfg,
                holders: Holders::Unverified,
                scope: Some((pipeline, iteration)),
            };
            let tally = self.converge(&mut placement, &pass, &mut ScrubReport::default());
            count("colza.store.exec.promoted", tally.promoted);
            count("colza.store.exec.demoted", tally.demoted);
        }
        self.store
            .hand_over(pipeline, iteration)
            .iter()
            .map(staged_block)
            .collect()
    }

    /// The block-transfer shape behind `colza.store.push` and
    /// `colza.store.handoff`: expose the payload, forward the RPC, let
    /// the peer RDMA-pull — the same bulk shape as `stage`.
    fn send_copy(
        &self,
        target: Address,
        b: &StoredBlock,
        role: Role,
        rpc: &str,
    ) -> std::result::Result<(), margo::RpcError> {
        let mut sp = hpcsim::trace::span("colza", "colza.store.push");
        if sp.active() {
            sp.arg("block", b.key.block_id);
            sp.arg("bytes", b.data.len());
            sp.arg("to", target.0);
        }
        let endpoint = self.margo.endpoint();
        // The *encoded* frame moves, by refcount — never re-encoded. A
        // delta-diff copy additionally exposes its reconstructed plain:
        // the receiver may be a fresh owner (repair, rebalance) whose
        // chain state never saw the base this frame diffs against.
        let bulk = endpoint.expose(b.data.clone());
        let plain_payload = match CodecId::from_u8(b.codec) {
            Ok(CodecId::DeltaDiff) => b.plain.clone(),
            _ => None,
        };
        let (plain, plain_size) = match &plain_payload {
            Some(p) => (Some(endpoint.expose(p.clone())), p.len()),
            None => (None, 0),
        };
        if plain_size > 0 {
            hpcsim::trace::counter_add("colza.codec.push.plain_bytes", plain_size as u64);
        }
        let args = PushBlockArgs {
            pipeline: b.key.pipeline.clone(),
            meta: block_meta(b),
            role,
            bulk,
            plain,
            plain_size,
        };
        let out = self.margo.forward_retry(target, rpc, &args, &push_retry());
        endpoint.unexpose(bulk).ok();
        if let Some(pb) = args.plain {
            endpoint.unexpose(pb).ok();
        }
        out
    }
}
