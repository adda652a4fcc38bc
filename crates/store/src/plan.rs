//! The convergence planner: one holder, one copy, one target owner set.
//!
//! Rebalance, drain, crash repair, anti-entropy scrub and execute-time
//! role correction are all the same computation: a holder of a copy
//! compares "where the target ring wants this copy" with "who is presumed
//! to hold it already" and derives, locally and without coordination,
//! (a) which owners it must push the copy to and (b) the role its own
//! copy keeps, if any ([`plan_copy`]). The callers differ only in the
//! target view, in who they presume holds a copy, and in whether this
//! holder is the one that pushes. The rules are arranged so that when
//! every holder applies them, every owner ends up with a copy, exactly
//! one of them holds it as primary, and a holder whose pushes did not
//! all land keeps its copy ([`BlockSync::may_drop`]). The role is the
//! whole verdict: the backend is handed the primaries when it executes
//! (`StagingStore::hand_over`), so a plan never has to feed or withdraw
//! anything.

use na::Address;

use crate::ring::{BlockKey, HashRing};
use crate::store::Role;

/// What one holder of a copy must do to converge on a target owner set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSync {
    /// Push a copy to each of these owners, tagged with the role the
    /// copy will hold there.
    pub push: Vec<(Address, Role)>,
    /// The local copy's role under the target ring, or `None` when the
    /// ring places the copy elsewhere.
    pub keep: Option<Role>,
}

impl BlockSync {
    /// Whether the local copy may be dropped once `landed` of the pushes
    /// have landed: only a copy the ring places elsewhere, and only when
    /// nothing this holder owes is still outstanding — never trade the
    /// last copy away.
    pub fn may_drop(&self, landed: usize) -> bool {
        self.keep.is_none() && landed == self.push.len()
    }
}

/// Plans one holder's actions for one copy.
///
/// * `me` — the holder computing the plan.
/// * `owners` — the copy's owner set under the target ring, primary first.
/// * `holds` — whether an owner is presumed (or known) to hold the copy
///   already. Under-reporting only costs an idempotent duplicate push;
///   over-reporting is what loses data, so callers presume sparingly.
/// * `push` — whether this holder delivers the copy to the owners that
///   lack it. `false` when another holder does (the mover of
///   [`sync_block`]) or when the pass only corrects roles.
pub fn plan_copy(
    me: Address,
    owners: &[Address],
    holds: impl Fn(Address) -> bool,
    push: bool,
) -> BlockSync {
    let mut sync = BlockSync {
        push: Vec::new(),
        keep: None,
    };
    for (i, &owner) in owners.iter().enumerate() {
        if owner == me {
            sync.keep = Some(role_at(i));
        } else if push && !holds(owner) {
            sync.push.push((owner, role_at(i)));
        }
    }
    sync
}

/// [`plan_copy`] across a membership change, from ring knowledge alone.
///
/// * `old_owners` — owner set under the ring the copy was placed with.
/// * `new_owners` — owner set under the new ring.
/// * `new_members` — full member list of the new ring (survivors).
///
/// The old owners that survived into the new view are presumed to hold
/// the copy. The *mover* — the first of them, or the holder itself when
/// none survived (e.g. the block landed here by a stage fallback) —
/// pushes to every new owner not so presumed; the other holders stay
/// quiet, so the global plan is duplicate-free.
pub fn sync_block(
    me: Address,
    old_owners: &[Address],
    new_owners: &[Address],
    new_members: &[Address],
) -> BlockSync {
    let presumed = |a: Address| old_owners.contains(&a) && new_members.contains(&a);
    let first_survivor = old_owners.iter().find(|a| new_members.contains(a));
    let mover = first_survivor.is_none_or(|&m| m == me);
    plan_copy(me, new_owners, presumed, mover)
}

fn role_at(i: usize) -> Role {
    if i == 0 {
        Role::Primary
    } else {
        Role::Replica
    }
}

/// One block transfer in a global rebalance plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// The block being moved.
    pub key: BlockKey,
    /// The surviving holder pushing the copy.
    pub from: Address,
    /// The new owner receiving it.
    pub to: Address,
    /// The role the copy holds at the destination.
    pub role: Role,
}

/// The global transfer plan for a set of keys across a membership change,
/// assuming every old owner still holding a copy applies [`sync_block`].
/// This is the bird's-eye view the property tests and the rebalance
/// bench measure; the provider executes the same plan one holder at a
/// time.
pub fn rebalance_plan<'a>(
    old: &HashRing,
    new: &HashRing,
    keys: impl IntoIterator<Item = &'a BlockKey>,
) -> Vec<Transfer> {
    let mut plan = Vec::new();
    for key in keys {
        let old_owners = old.owners(key);
        let new_owners = new.owners(key);
        for &holder in &old_owners {
            if !new.members().contains(&holder) {
                continue; // this copy did not survive
            }
            let sync = sync_block(holder, &old_owners, &new_owners, new.members());
            for (to, role) in sync.push {
                plan.push(Transfer {
                    key: key.clone(),
                    from: holder,
                    to,
                    role,
                });
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingConfig;

    fn a(n: u64) -> Address {
        Address(n)
    }

    #[test]
    fn stable_membership_moves_nothing() {
        let owners = [a(0), a(1)];
        let members = [a(0), a(1), a(2)];
        for &me in &owners {
            let s = sync_block(me, &owners, &owners, &members);
            assert!(s.push.is_empty());
            assert!(s.keep.is_some());
        }
        assert_eq!(sync_block(a(0), &owners, &owners, &members).keep, Some(Role::Primary));
        assert_eq!(sync_block(a(1), &owners, &owners, &members).keep, Some(Role::Replica));
    }

    #[test]
    fn surviving_replica_repairs_a_crashed_primary() {
        // Old owners [0 primary, 1 replica]; 0 crashed; new owners [1, 2].
        let old = [a(0), a(1)];
        let new = [a(1), a(2)];
        let members = [a(1), a(2)];
        let s = sync_block(a(1), &old, &new, &members);
        assert_eq!(s.push, vec![(a(2), Role::Replica)]);
        assert_eq!(s.keep, Some(Role::Primary), "survivor promotes to primary");
    }

    #[test]
    fn displaced_holder_pushes_then_drops() {
        // Shrink moved the block entirely off this server.
        let old = [a(0)];
        let new = [a(1)];
        let members = [a(1), a(2)];
        let s = sync_block(a(0), &old, &new, &members);
        assert_eq!(s.push, vec![(a(1), Role::Primary)]);
        assert_eq!(s.keep, None);
    }

    #[test]
    fn only_the_first_surviving_owner_moves() {
        // Both replicas survive; only the first pushes to the new owner.
        let old = [a(0), a(1)];
        let new = [a(0), a(2)];
        let members = [a(0), a(1), a(2)];
        let s0 = sync_block(a(0), &old, &new, &members);
        assert_eq!(s0.push, vec![(a(2), Role::Replica)]);
        assert_eq!(s0.keep, Some(Role::Primary));
        let s1 = sync_block(a(1), &old, &new, &members);
        assert!(s1.push.is_empty(), "non-mover holders stay quiet");
        assert_eq!(s1.keep, None, "no longer an owner: drop after sync");
    }

    #[test]
    fn fallback_holder_outside_old_owners_becomes_mover() {
        // The block landed here by stage fallback after its whole old
        // owner set crashed: nobody is presumed, so we move it.
        let old = [a(9)];
        let new = [a(1), a(2)];
        let members = [a(1), a(2)];
        let s = sync_block(a(1), &old, &new, &members);
        assert_eq!(s.push, vec![(a(2), Role::Replica)]);
        assert_eq!(s.keep, Some(Role::Primary));
    }

    #[test]
    fn global_plan_covers_every_new_owner() {
        let members: Vec<Address> = (0..5).map(a).collect();
        let survivors: Vec<Address> = (1..5).map(a).collect(); // 0 leaves
        let cfg = RingConfig {
            vnodes: 32,
            replication: 2,
        };
        let old = HashRing::build(&members, |_| None, cfg);
        let new = HashRing::build(&survivors, |_| None, cfg);
        let keys: Vec<BlockKey> = (0..100).map(|i| BlockKey::new("p", i)).collect();
        let plan = rebalance_plan(&old, &new, &keys);
        for key in &keys {
            let old_owners = old.owners(key);
            for (i, &owner) in new.owners(key).iter().enumerate() {
                let held = old_owners.contains(&owner) && survivors.contains(&owner);
                let pushed = plan
                    .iter()
                    .any(|t| &t.key == key && t.to == owner && t.role == role_at(i));
                assert!(
                    held || pushed,
                    "new owner {owner:?} of {key:?} neither held nor receives the block"
                );
            }
        }
    }
}
