//! The per-server block table backing a Colza provider.
//!
//! Every staged (or migrated-in) block is recorded here with its role.
//! The store is the only holder of staged data: the pipeline backend
//! keeps nothing between calls and is handed the iteration's primary
//! copies when it executes ([`StagingStore::hand_over`]). Only primaries
//! are handed over — that is what keeps `execute` rendering each block
//! exactly once across the staging area even when `k` servers hold it —
//! so promotion and demotion during repair only flip the role.
//! Inserts are idempotent: stage retries, drain and repair may race and
//! deliver the same copy twice.
//!
//! A copy's identity is `(pipeline, iteration, block_id, dataset name)`:
//! one block may carry several datasets (`BlockMeta::name`), and each is
//! held separately. The *ring* key deliberately excludes the name, so
//! all datasets of a block colocate on the same owners.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::ring::BlockKey;

/// The role of one copy of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// The copy handed to the backend at `execute`; exactly one per
    /// block per view.
    Primary,
    /// A passive copy kept for crash recovery.
    Replica,
}

/// Live resource usage of one tenant on one server — the per-tenant
/// section of the `colza.admin.metrics` scrape, and the input to
/// tenant-aware shrink victim selection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantUsage {
    /// The tenant's name.
    pub tenant: String,
    /// Encoded (on-store) bytes currently held for the tenant — what
    /// staged-byte quotas meter.
    pub staged_bytes: u64,
    /// Decoded size of the same holdings.
    pub decoded_bytes: u64,
    /// Number of copies held.
    pub blocks: u64,
}

/// Outcome of a quota-checked [`StagingStore::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// The copy was recorded; quota was charged.
    Fresh,
    /// The copy was already held (idempotent re-insert); no charge.
    Duplicate,
    /// Admitting would push the tenant's staged bytes past its quota.
    OverQuota {
        /// The tenant's staged bytes at refusal time.
        used: u64,
    },
}

/// One copy of a block held by a server.
#[derive(Debug, Clone)]
pub struct StoredBlock {
    /// Placement key (pipeline, block id).
    pub key: BlockKey,
    /// Dataset/field name from the block's metadata.
    pub name: String,
    /// Tenant the block belongs to (quota and accounting key).
    pub tenant: String,
    /// Iteration the block belongs to.
    pub iteration: u64,
    /// This copy's role.
    pub role: Role,
    /// Whether the iteration's latest `execute` handed this copy to the
    /// backend — a record written only by [`StagingStore::hand_over`].
    pub fed: bool,
    /// The payload, in its *encoded* (wire/store) form. Replication,
    /// repair and rebalance all move this same `Bytes` refcount — a
    /// block is never re-encoded once staged.
    pub data: Bytes,
    /// Numeric codec id of `data` (the store is below the codec layer
    /// and treats it as opaque; `0` is raw).
    pub codec: u8,
    /// Decoded payload length (`== data.len()` for raw blocks).
    pub decoded_len: usize,
    /// The decoded payload, where this holder has already paid for it.
    /// Chain codecs (iteration deltas) reconstruct it on every holder, so
    /// each can serve as a delta base and seed fresh owners during repair
    /// without the released base frame; a stateless non-raw frame is
    /// decoded by the primary it was staged on.
    pub plain: Option<Bytes>,
}

type Key = (String, u64, u64, String); // (pipeline, iteration, block_id, name)

fn key_of(b: &StoredBlock) -> Key {
    (
        b.key.pipeline.clone(),
        b.iteration,
        b.key.block_id,
        b.name.clone(),
    )
}

/// Per-tenant running totals, updated on every insert/remove.
#[derive(Debug, Default, Clone, Copy)]
struct TenantLoad {
    bytes: u64,
    decoded: u64,
    blocks: u64,
}

/// The block table. Iteration order (and therefore sync/drain push
/// order) is the sorted `(pipeline, iteration, block_id, name)` order,
/// which keeps migration traffic deterministic for a deterministic store.
///
/// The table also keeps per-tenant running totals: quota checks in
/// [`StagingStore::admit`] read them under the same lock as the insert,
/// so two concurrent admissions can never both squeeze under a quota.
#[derive(Debug, Default)]
pub struct StagingStore {
    inner: Mutex<Inner>,
    bytes: AtomicU64,
    decoded: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    blocks: BTreeMap<Key, StoredBlock>,
    tenants: BTreeMap<String, TenantLoad>,
}

impl Inner {
    fn charge(&mut self, block: &StoredBlock) {
        let t = self.tenants.entry(block.tenant.clone()).or_default();
        t.bytes += block.data.len() as u64;
        t.decoded += block.decoded_len as u64;
        t.blocks += 1;
    }

    fn refund(&mut self, block: &StoredBlock) {
        if let Some(t) = self.tenants.get_mut(&block.tenant) {
            t.bytes = t.bytes.saturating_sub(block.data.len() as u64);
            t.decoded = t.decoded.saturating_sub(block.decoded_len as u64);
            t.blocks = t.blocks.saturating_sub(1);
            if t.blocks == 0 {
                self.tenants.remove(&block.tenant);
            }
        }
    }
}

impl StagingStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a copy. Idempotent: re-inserting an already-held block
    /// keeps the existing payload and fed record, only upgrading the role
    /// to `Primary` if the incoming copy claims it. Returns `true` when
    /// the block was not held before.
    pub fn insert(&self, block: StoredBlock) -> bool {
        self.admit(block, u64::MAX) == Admit::Fresh
    }

    /// Quota-checked insert: refuses the copy when the tenant's staged
    /// bytes plus this payload would exceed `quota`. Duplicate re-inserts
    /// (stage retries, repair races) are *always* accepted — they charge
    /// nothing — so a retried RPC can never bounce off a quota its first
    /// delivery already consumed. A `quota` of `u64::MAX` is unlimited;
    /// `0` admits only empty payloads.
    pub fn admit(&self, block: StoredBlock, quota: u64) -> Admit {
        let k = key_of(&block);
        let mut inner = self.inner.lock();
        if let Some(existing) = inner.blocks.get_mut(&k) {
            if block.role == Role::Primary {
                existing.role = Role::Primary;
            }
            // A re-push may carry the reconstructed plain this holder
            // lacked (delta repair); adopt it, never drop it.
            if existing.plain.is_none() {
                existing.plain = block.plain;
            }
            return Admit::Duplicate;
        }
        let used = inner
            .tenants
            .get(&block.tenant)
            .map_or(0, |t| t.bytes);
        if quota != u64::MAX && used.saturating_add(block.data.len() as u64) > quota {
            return Admit::OverQuota { used };
        }
        self.bytes.fetch_add(block.data.len() as u64, Ordering::Relaxed);
        self.decoded
            .fetch_add(block.decoded_len as u64, Ordering::Relaxed);
        inner.charge(&block);
        inner.blocks.insert(k, block);
        Admit::Fresh
    }

    /// Makes a held copy the primary. Returns whether the role changed.
    pub fn promote(&self, pipeline: &str, iteration: u64, block_id: u64, name: &str) -> bool {
        self.set_role(pipeline, iteration, block_id, name, Role::Primary)
    }

    /// Demotes a held copy to replica. Returns whether the role changed.
    pub fn demote(&self, pipeline: &str, iteration: u64, block_id: u64, name: &str) -> bool {
        self.set_role(pipeline, iteration, block_id, name, Role::Replica)
    }

    fn set_role(
        &self,
        pipeline: &str,
        iteration: u64,
        block_id: u64,
        name: &str,
        role: Role,
    ) -> bool {
        let mut inner = self.inner.lock();
        inner
            .blocks
            .get_mut(&(pipeline.to_string(), iteration, block_id, name.to_string()))
            .is_some_and(|b| std::mem::replace(&mut b.role, role) != role)
    }

    /// The execute-time selection: the iteration's primary copies, in key
    /// order — what the backend is handed. Every copy of the iteration
    /// records whether it was among them (`fed`), so a copy demoted since
    /// an earlier attempt at the same iteration reads unfed again.
    pub fn hand_over(&self, pipeline: &str, iteration: u64) -> Vec<StoredBlock> {
        let mut inner = self.inner.lock();
        let first = (pipeline.to_string(), iteration, 0, String::new());
        inner
            .blocks
            .range_mut(first..)
            .take_while(|(k, _)| k.0 == pipeline && k.1 == iteration)
            .filter_map(|(_, b)| {
                b.fed = b.role == Role::Primary;
                b.fed.then(|| b.clone())
            })
            .collect()
    }

    /// Removes one copy, returning it.
    pub fn remove(
        &self,
        pipeline: &str,
        iteration: u64,
        block_id: u64,
        name: &str,
    ) -> Option<StoredBlock> {
        let mut inner = self.inner.lock();
        let removed = inner
            .blocks
            .remove(&(pipeline.to_string(), iteration, block_id, name.to_string()));
        if let Some(b) = &removed {
            self.bytes.fetch_sub(b.data.len() as u64, Ordering::Relaxed);
            self.decoded
                .fetch_sub(b.decoded_len as u64, Ordering::Relaxed);
            inner.refund(b);
        }
        removed
    }

    /// Drops every copy belonging to `(pipeline, iteration)` — the
    /// `deactivate` release path. Returns how many were dropped.
    pub fn release_iteration(&self, pipeline: &str, iteration: u64) -> usize {
        let mut inner = self.inner.lock();
        let mut released = Vec::new();
        inner.blocks.retain(|k, b| {
            if k.0 == pipeline && k.1 == iteration {
                self.bytes.fetch_sub(b.data.len() as u64, Ordering::Relaxed);
                self.decoded
                    .fetch_sub(b.decoded_len as u64, Ordering::Relaxed);
                released.push(b.clone());
                false
            } else {
                true
            }
        });
        for b in &released {
            inner.refund(b);
        }
        released.len()
    }

    /// A sorted snapshot of every held copy (sync and drain walk this).
    pub fn snapshot(&self) -> Vec<StoredBlock> {
        self.inner.lock().blocks.values().cloned().collect()
    }

    /// Per-tenant usage, sorted by tenant name. Tenants that hold no
    /// copies are absent — a tenant's entry disappears the moment its
    /// last block is released.
    pub fn tenant_usage(&self) -> Vec<TenantUsage> {
        self.inner
            .lock()
            .tenants
            .iter()
            .map(|(name, t)| TenantUsage {
                tenant: name.clone(),
                staged_bytes: t.bytes,
                decoded_bytes: t.decoded,
                blocks: t.blocks,
            })
            .collect()
    }

    /// Encoded bytes currently held for one tenant (what its quota
    /// meters); `0` for an unknown tenant.
    pub fn tenant_staged_bytes(&self, tenant: &str) -> u64 {
        self.inner
            .lock()
            .tenants
            .get(tenant)
            .map_or(0, |t| t.bytes)
    }

    /// Total payload bytes currently held, in their stored (encoded)
    /// form — the drain-aware shrink signal exported through
    /// `colza.admin.metrics`, and what migration actually moves.
    pub fn staged_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total *decoded* size of the held copies (sum of the blocks'
    /// `decoded_len`) — the codec-independent accounting view. Equal to
    /// [`StagingStore::staged_bytes`] when everything is raw.
    pub fn decoded_bytes(&self) -> u64 {
        self.decoded.load(Ordering::Relaxed)
    }

    /// Number of copies held.
    pub fn len(&self) -> usize {
        self.inner.lock().blocks.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(id: u64, role: Role, bytes: usize) -> StoredBlock {
        StoredBlock {
            key: BlockKey::new("p", id),
            name: "field".to_string(),
            tenant: "default".to_string(),
            iteration: 0,
            role,
            fed: false,
            data: Bytes::from(vec![0u8; bytes]),
            codec: 0,
            decoded_len: bytes,
            plain: None,
        }
    }

    fn tenant_block(tenant: &str, id: u64, bytes: usize) -> StoredBlock {
        let mut b = block(id, Role::Primary, bytes);
        b.tenant = tenant.to_string();
        b
    }

    #[test]
    fn insert_is_idempotent_and_counts_bytes() {
        let s = StagingStore::new();
        assert!(s.insert(block(1, Role::Replica, 10)));
        assert!(!s.insert(block(1, Role::Replica, 10)), "duplicate insert");
        assert_eq!(s.staged_bytes(), 10);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn duplicate_insert_upgrades_role_but_never_downgrades() {
        let s = StagingStore::new();
        s.insert(block(1, Role::Replica, 4));
        s.insert(block(1, Role::Primary, 4));
        assert_eq!(s.snapshot()[0].role, Role::Primary);
        s.insert(block(1, Role::Replica, 4));
        assert_eq!(s.snapshot()[0].role, Role::Primary);
    }

    #[test]
    fn role_flips_report_change_and_only_hand_over_writes_fed() {
        let s = StagingStore::new();
        s.insert(block(1, Role::Replica, 4));
        s.insert(block(2, Role::Primary, 4));
        assert!(s.promote("p", 0, 1, "field"), "replica became primary");
        assert!(!s.promote("p", 0, 1, "field"), "already primary");
        assert!(!s.promote("p", 0, 9, "field"), "not held");
        assert!(
            s.snapshot().iter().all(|b| !b.fed),
            "role flips feed nothing"
        );

        let ids = |blocks: Vec<StoredBlock>| -> Vec<u64> {
            blocks.iter().map(|b| b.key.block_id).collect()
        };
        assert_eq!(ids(s.hand_over("p", 0)), [1, 2], "primaries, in key order");
        assert!(s.snapshot().iter().all(|b| b.fed));

        assert!(s.demote("p", 0, 1, "field"), "primary became replica");
        assert!(!s.demote("p", 0, 1, "field"), "already replica");
        assert!(s.snapshot()[0].fed, "a demotion alone rewrites no record");
        assert_eq!(ids(s.hand_over("p", 0)), [2], "the next hand-over does");
        let fed: Vec<bool> = s.snapshot().iter().map(|b| b.fed).collect();
        assert_eq!(fed, [false, true]);

        // Another iteration's copies are neither returned nor touched.
        let mut next = block(1, Role::Primary, 4);
        next.iteration = 1;
        s.insert(next);
        assert_eq!(ids(s.hand_over("p", 0)), [2]);
        assert!(!s.snapshot()[2].fed);
    }

    #[test]
    fn distinct_datasets_under_one_block_id_are_held_separately() {
        // Two datasets of the same block must not collide: the second
        // insert is a new copy, not a silently-dropped duplicate.
        let s = StagingStore::new();
        let mut temperature = block(1, Role::Primary, 8);
        temperature.name = "temperature".to_string();
        let mut pressure = block(1, Role::Primary, 16);
        pressure.name = "pressure".to_string();
        assert!(s.insert(temperature));
        assert!(s.insert(pressure), "second dataset is a fresh insert");
        assert_eq!(s.len(), 2);
        assert_eq!(s.staged_bytes(), 24);
        assert_eq!(s.hand_over("p", 0).len(), 2, "handed over independently");
        let removed = s.remove("p", 0, 1, "temperature").expect("held");
        assert_eq!(removed.name, "temperature");
        assert_eq!(s.staged_bytes(), 16);
    }

    #[test]
    fn release_iteration_only_touches_that_iteration() {
        let s = StagingStore::new();
        s.insert(block(1, Role::Primary, 8));
        let mut b2 = block(2, Role::Primary, 8);
        b2.iteration = 1;
        s.insert(b2);
        assert_eq!(s.release_iteration("p", 0), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.staged_bytes(), 8);
        assert_eq!(s.release_iteration("other", 1), 0);
    }

    #[test]
    fn encoded_and_decoded_bytes_are_tracked_separately() {
        let s = StagingStore::new();
        let mut b = block(1, Role::Primary, 10);
        b.codec = 1;
        b.decoded_len = 40; // a 4x-compressed block
        s.insert(b);
        assert_eq!(s.staged_bytes(), 10, "store holds encoded bytes");
        assert_eq!(s.decoded_bytes(), 40, "accounting sees decoded size");
        s.insert(block(2, Role::Replica, 8)); // raw: both views equal
        assert_eq!(s.staged_bytes(), 18);
        assert_eq!(s.decoded_bytes(), 48);
        s.remove("p", 0, 1, "field");
        assert_eq!(s.staged_bytes(), 8);
        assert_eq!(s.decoded_bytes(), 8);
        assert_eq!(s.release_iteration("p", 0), 1);
        assert_eq!(s.decoded_bytes(), 0);
    }

    #[test]
    fn reinsert_adopts_missing_plain_payload() {
        let s = StagingStore::new();
        s.insert(block(1, Role::Replica, 4));
        let mut with_plain = block(1, Role::Replica, 4);
        with_plain.plain = Some(Bytes::from(vec![9u8; 4]));
        assert!(!s.insert(with_plain), "still a duplicate");
        assert!(s.snapshot()[0].plain.is_some(), "plain was adopted");
    }

    #[test]
    fn admit_enforces_quota_at_the_exact_boundary() {
        let s = StagingStore::new();
        // Exactly at quota: admitted.
        assert_eq!(s.admit(tenant_block("a", 1, 64), 64), Admit::Fresh);
        // One byte over: refused with the usage at refusal time.
        assert_eq!(
            s.admit(tenant_block("a", 2, 1), 64),
            Admit::OverQuota { used: 64 }
        );
        // The refused copy was not recorded and charged nothing.
        assert_eq!(s.len(), 1);
        assert_eq!(s.tenant_staged_bytes("a"), 64);
        // Another tenant's quota is its own.
        assert_eq!(s.admit(tenant_block("b", 2, 64), 64), Admit::Fresh);
    }

    #[test]
    fn admit_quota_freed_on_release_and_remove() {
        let s = StagingStore::new();
        assert_eq!(s.admit(tenant_block("a", 1, 64), 64), Admit::Fresh);
        assert!(matches!(
            s.admit(tenant_block("a", 2, 64), 64),
            Admit::OverQuota { .. }
        ));
        // deactivate path frees the quota...
        assert_eq!(s.release_iteration("p", 0), 1);
        assert_eq!(s.tenant_staged_bytes("a"), 0);
        assert_eq!(s.admit(tenant_block("a", 2, 64), 64), Admit::Fresh);
        // ...and so does a plain remove (repair drop path).
        s.remove("p", 0, 2, "field").expect("held");
        assert_eq!(s.tenant_staged_bytes("a"), 0);
        assert!(s.tenant_usage().is_empty(), "empty tenants drop out");
    }

    #[test]
    fn admit_duplicates_never_charge_or_bounce() {
        let s = StagingStore::new();
        assert_eq!(s.admit(tenant_block("a", 1, 64), 64), Admit::Fresh);
        // A stage retry of the same copy must succeed even though the
        // tenant is fully at quota, and must not double-charge.
        assert_eq!(s.admit(tenant_block("a", 1, 64), 64), Admit::Duplicate);
        assert_eq!(s.tenant_staged_bytes("a"), 64);
        assert_eq!(s.staged_bytes(), 64);
    }

    #[test]
    fn admit_degenerate_quotas() {
        let s = StagingStore::new();
        // Zero quota: any non-empty payload is refused...
        assert_eq!(
            s.admit(tenant_block("a", 1, 1), 0),
            Admit::OverQuota { used: 0 }
        );
        // ...but an empty payload still fits.
        assert_eq!(s.admit(tenant_block("a", 1, 0), 0), Admit::Fresh);
        // Unlimited quota admits anything.
        assert_eq!(
            s.admit(tenant_block("b", 2, 1 << 20), u64::MAX),
            Admit::Fresh
        );
    }

    #[test]
    fn tenant_usage_tracks_per_tenant_totals() {
        let s = StagingStore::new();
        s.insert(tenant_block("a", 1, 8));
        s.insert(tenant_block("a", 2, 8));
        let mut compressed = tenant_block("b", 3, 4);
        compressed.codec = 1;
        compressed.decoded_len = 16;
        s.insert(compressed);
        let usage = s.tenant_usage();
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0].tenant, "a");
        assert_eq!(usage[0].staged_bytes, 16);
        assert_eq!(usage[0].decoded_bytes, 16);
        assert_eq!(usage[0].blocks, 2);
        assert_eq!(usage[1].tenant, "b");
        assert_eq!(usage[1].staged_bytes, 4);
        assert_eq!(usage[1].decoded_bytes, 16);
        // Per-tenant totals always reconcile with the aggregates.
        let (sb, db): (u64, u64) = usage
            .iter()
            .fold((0, 0), |(s0, d0), t| (s0 + t.staged_bytes, d0 + t.decoded_bytes));
        assert_eq!(sb, s.staged_bytes());
        assert_eq!(db, s.decoded_bytes());
    }

    #[test]
    fn remove_returns_the_copy() {
        let s = StagingStore::new();
        s.insert(block(3, Role::Replica, 16));
        let b = s.remove("p", 0, 3, "field").expect("held");
        assert_eq!(b.key.block_id, 3);
        assert_eq!(s.staged_bytes(), 0);
        assert!(s.is_empty());
        assert!(s.remove("p", 0, 3, "field").is_none());
    }
}
