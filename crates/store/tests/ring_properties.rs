//! Property tests for the staging store's placement and migration
//! planning (DESIGN.md §10): the invariants the whole resilience story
//! rests on. Placement must be a pure function of the member *set* (so
//! clients and servers agree without coordination), replicas must land on
//! distinct servers, a single membership change must relocate only its
//! fair share of the keyspace, the migration plan must leave every new
//! owner holding its blocks, and the per-copy planner every convergence
//! pass runs must never lose a copy or feed it twice.

use std::collections::BTreeMap;

use na::Address;
use proptest::prelude::*;
use store::{plan_copy, rebalance_plan, BlockKey, HashRing, RingConfig, Role};

/// Builds a topology-blind ring over `n` distinct members derived from a
/// seed (addresses are scattered, not 0..n, so nothing accidentally
/// depends on density).
fn ring_of(seed: u64, n: usize, cfg: RingConfig) -> HashRing {
    let members = members_of(seed, n);
    HashRing::build(&members, |_| None, cfg)
}

fn members_of(seed: u64, n: usize) -> Vec<Address> {
    (0..n as u64)
        .map(|i| Address(seed.wrapping_mul(0x9E37_79B9).wrapping_add(i * 7919) % 100_000))
        .collect()
}

fn keys(pipeline: &str, n: u64) -> Vec<BlockKey> {
    (0..n).map(|b| BlockKey::new(pipeline, b)).collect()
}

/// A deterministic coin per `(seed, a, b)`, for the random relations below.
fn coin(seed: u64, a: u64, b: u64) -> bool {
    let mut x = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x >> 40) & 1 == 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Placement is deterministic and member-order-independent: any
    /// permutation of the same member set yields identical owner lists.
    #[test]
    fn placement_is_a_function_of_the_member_set(
        seed in any::<u64>(),
        n in 1usize..12,
        replication in 1usize..4,
        rot in 0usize..12,
    ) {
        let cfg = RingConfig { replication, ..RingConfig::default() };
        let mut members = members_of(seed, n);
        members.sort();
        members.dedup();
        let a = HashRing::build(&members, |_| None, cfg);
        let mut rotated = members.clone();
        rotated.rotate_left(rot % members.len().max(1));
        let b = HashRing::build(&rotated, |_| None, cfg);
        for k in keys("prop", 64) {
            prop_assert_eq!(a.owners(&k), b.owners(&k));
        }
    }

    /// Every block gets `min(replication, n)` owners, all distinct, with
    /// the primary first.
    #[test]
    fn replicas_are_distinct_servers(
        seed in any::<u64>(),
        n in 1usize..12,
        replication in 1usize..5,
    ) {
        let ring = ring_of(seed, n, RingConfig { replication, ..RingConfig::default() });
        let servers = ring.members().len();
        for k in keys("prop", 64) {
            let owners = ring.owners(&k);
            prop_assert_eq!(owners.len(), replication.min(servers));
            let mut dedup = owners.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), owners.len(), "owners must be distinct");
            prop_assert_eq!(owners[0], ring.primary(&k).unwrap());
        }
    }

    /// One join relocates roughly its fair share of primaries — the
    /// consistent-hashing contract. With vnodes the variance is real but
    /// bounded: allow up to 3x the ideal 1/(n+1) share, and require the
    /// newcomer to actually receive every relocated block.
    #[test]
    fn single_join_relocates_a_bounded_share(
        seed in any::<u64>(),
        n in 2usize..10,
    ) {
        let cfg = RingConfig { vnodes: 128, replication: 1 };
        let mut members = members_of(seed, n);
        members.sort();
        members.dedup();
        let joiner = Address(1_000_000 + (seed % 1000));
        let mut grown = members.clone();
        grown.push(joiner);
        let old = HashRing::build(&members, |_| None, cfg);
        let new = HashRing::build(&grown, |_| None, cfg);
        let ks = keys("prop", 256);
        let mut moved = 0usize;
        for k in &ks {
            let before = old.primary(k).unwrap();
            let after = new.primary(k).unwrap();
            if before != after {
                moved += 1;
                // Consistent hashing: a block only moves *to the joiner*.
                prop_assert_eq!(after, joiner);
            }
        }
        let n_new = new.members().len();
        let fair = ks.len() / n_new;
        prop_assert!(
            moved <= fair * 3 + 8,
            "join moved {} of {} blocks (fair share {})",
            moved, ks.len(), fair
        );
    }

    /// One leave relocates only the leaver's blocks: every block whose
    /// primary survives keeps its primary.
    #[test]
    fn single_leave_moves_only_the_leavers_blocks(
        seed in any::<u64>(),
        n in 2usize..10,
        leaver_pick in any::<usize>(),
    ) {
        let cfg = RingConfig { vnodes: 128, replication: 1 };
        let mut members = members_of(seed, n);
        members.sort();
        members.dedup();
        let leaver = members[leaver_pick % members.len()];
        let shrunk: Vec<Address> = members.iter().copied().filter(|&m| m != leaver).collect();
        let old = HashRing::build(&members, |_| None, cfg);
        let new = HashRing::build(&shrunk, |_| None, cfg);
        for k in keys("prop", 256) {
            let before = old.primary(&k).unwrap();
            let after = new.primary(&k).unwrap();
            if before != leaver {
                prop_assert_eq!(before, after, "surviving primaries must not move");
            } else {
                prop_assert!(after != leaver);
            }
        }
    }

    /// The migration plan is complete: applying every transfer to the
    /// old placement leaves each new owner holding each of its blocks,
    /// and no transfer targets a server that already held the block.
    #[test]
    fn rebalance_plan_covers_every_new_owner(
        seed in any::<u64>(),
        n_old in 1usize..8,
        n_new in 1usize..8,
        replication in 1usize..3,
    ) {
        let cfg = RingConfig { replication, ..RingConfig::default() };
        // Overlapping but different member sets (same seed, different n).
        let mut old_members = members_of(seed, n_old);
        old_members.sort();
        old_members.dedup();
        let mut new_members = members_of(seed, n_new);
        new_members.push(Address(2_000_000 + seed % 100));
        new_members.sort();
        new_members.dedup();
        let old = HashRing::build(&old_members, |_| None, cfg);
        let new = HashRing::build(&new_members, |_| None, cfg);
        let ks = keys("prop", 64);
        let plan = rebalance_plan(&old, &new, &ks);
        for k in &ks {
            let old_owners = old.owners(k);
            if !old_owners.iter().any(|h| new.members().contains(h)) {
                // Every copy's holder left the group: the block is lost
                // (failures exceeded the replication factor). No plan can
                // cover it, so the completeness contract does not apply.
                continue;
            }
            for target in new.owners(k) {
                let held_before = old_owners.contains(&target)
                    && new.members().contains(&target);
                let pushed = plan
                    .iter()
                    .any(|t| t.key == *k && t.to == target);
                prop_assert!(
                    held_before || pushed,
                    "new owner {:?} of block {} neither held it nor receives it",
                    target, k.block_id
                );
                prop_assert!(
                    !(held_before && pushed),
                    "plan pushes block {} to {:?} which already holds it",
                    k.block_id, target
                );
            }
        }
    }

    /// The per-copy planner is safe whoever holds the copy and whatever
    /// each holder knows. A random set of surviving holders (owners under
    /// some older ring, stage fallbacks, parked leftovers — the planner
    /// does not care) each apply `plan_copy` against the target ring,
    /// either scrub-style (everyone pushes, each from its own partial but
    /// never over-reporting knowledge of who holds) or commit-style (one
    /// mover pushes from full knowledge). Then: every target owner holds
    /// or is sent the copy; exactly one server ends up `Primary`; a
    /// holder with a push that did not land never drops; and once every
    /// push landed the copy lives on exactly its owners.
    #[test]
    fn plan_copy_converges_without_losing_or_double_feeding(
        seed in any::<u64>(),
        n in 1usize..9,
        replication in 1usize..=3,
        mover_only in any::<bool>(),
        lossy in any::<bool>(),
    ) {
        let cfg = RingConfig { replication, ..RingConfig::default() };
        let ring = ring_of(seed, n, cfg);
        let members = ring.members().to_vec();
        for k in keys("prop", 32) {
            let owners = ring.owners(&k);
            let mut holders: Vec<Address> = members
                .iter()
                .copied()
                .filter(|m| coin(seed, m.0, k.block_id))
                .collect();
            if holders.is_empty() {
                holders.push(members[(seed as usize).wrapping_add(k.block_id as usize) % members.len()]);
            }
            // Who ends the pass holding the copy, and in which role.
            let mut after: BTreeMap<Address, Role> = BTreeMap::new();
            let mut all_landed = true;
            for &h in &holders {
                let knows = |a: Address| {
                    holders.contains(&a) && (mover_only || coin(seed ^ 0xA5A5, h.0, a.0))
                };
                let sync = plan_copy(h, &owners, knows, !mover_only || h == holders[0]);
                let mut landed = 0;
                for &(to, role) in &sync.push {
                    prop_assert!(!knows(to) && to != h, "pushed to a known holder");
                    if lossy && coin(seed ^ 0x5A5A, h.0 ^ k.block_id, to.0) {
                        all_landed = false;
                        continue;
                    }
                    landed += 1;
                    // Receivers admit idempotently; a Primary claim sticks.
                    let slot = after.entry(to).or_insert(role);
                    if role == Role::Primary {
                        *slot = Role::Primary;
                    }
                }
                if landed < sync.push.len() {
                    prop_assert!(!sync.may_drop(landed), "dropped with a push still owed");
                }
                if !sync.may_drop(landed) {
                    // Kept: in its ring role, or demoted while it waits.
                    after.insert(h, sync.keep.unwrap_or(Role::Replica));
                }
            }
            prop_assert!(!after.is_empty(), "block {} lost every copy", k.block_id);
            let primaries: Vec<Address> = after
                .iter()
                .filter(|(_, r)| **r == Role::Primary)
                .map(|(a, _)| *a)
                .collect();
            prop_assert!(primaries.len() <= 1, "block {} fed twice: {:?}", k.block_id, primaries);
            if all_landed {
                prop_assert_eq!(primaries, vec![owners[0]]);
                let mut want = owners.clone();
                want.sort();
                let got: Vec<Address> = after.keys().copied().collect();
                prop_assert_eq!(got, want, "landed pass must leave exactly the owners holding");
            }
        }
    }
}
