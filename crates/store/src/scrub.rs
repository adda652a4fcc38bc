//! Anti-entropy inventory digests (DESIGN.md §10).
//!
//! The scrubber's wire currency: a server summarises its holdings as a
//! compact per-`(pipeline, iteration)` set of 64-bit copy fingerprints.
//! Peers exchange these digests instead of block lists — a digest for a
//! thousand copies is a few KiB — and each holder then pushes exactly the
//! copies an owner provably lacks. Everything here is a pure function of
//! the store snapshot, so client, servers, and tests compute identical
//! digests with no coordination (the same determinism contract as the
//! [`crate::ring`]).
//!
//! A copy's fingerprint covers `(block_id, dataset name)` — the parts of
//! the copy identity *inside* a `(pipeline, iteration)` bucket. Pipeline
//! and iteration stay out of the hash and in the bucket key, so a
//! receiver can answer "do you hold copy h of (p, it)?" with one sorted
//! lookup and the sender never confuses same-id blocks across iterations.

use serde::{Deserialize, Serialize};

use crate::store::StoredBlock;

/// splitmix64 finalizer (same constants as the ring's mixer).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The stable fingerprint of one copy within its `(pipeline, iteration)`
/// bucket: FNV-1a over the dataset name, mixed with the block id.
pub fn copy_hash(block_id: u64, name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h ^ mix64(block_id))
}

/// One `(pipeline, iteration)` bucket of a [`StoreDigest`]: the sorted,
/// deduplicated fingerprints of every copy held there.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationDigest {
    /// Pipeline instance name.
    pub pipeline: String,
    /// Iteration the copies belong to.
    pub iteration: u64,
    /// Sorted [`copy_hash`] fingerprints.
    pub hashes: Vec<u64>,
}

/// A server's whole-store inventory summary, exchanged by the scrubber.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreDigest {
    /// Buckets sorted by `(pipeline, iteration)`.
    pub entries: Vec<IterationDigest>,
}

impl StoreDigest {
    /// Digests a store snapshot. The snapshot's sorted iteration order
    /// makes the result canonical: equal holdings ⇒ byte-equal digests.
    pub fn of(blocks: &[StoredBlock]) -> Self {
        let mut entries: Vec<IterationDigest> = Vec::new();
        for b in blocks {
            let h = copy_hash(b.key.block_id, &b.name);
            match entries.last_mut() {
                Some(e) if e.pipeline == b.key.pipeline && e.iteration == b.iteration => {
                    if e.hashes.last() != Some(&h) {
                        e.hashes.push(h);
                    }
                }
                _ => entries.push(IterationDigest {
                    pipeline: b.key.pipeline.clone(),
                    iteration: b.iteration,
                    hashes: vec![h],
                }),
            }
        }
        // Snapshot order sorts by (pipeline, iteration, block_id, name),
        // not by fingerprint; canonicalise each bucket.
        for e in &mut entries {
            e.hashes.sort_unstable();
            e.hashes.dedup();
        }
        entries.sort_by(|a, b| (&a.pipeline, a.iteration).cmp(&(&b.pipeline, b.iteration)));
        Self { entries }
    }

    /// Whether the digested store held copy `hash` of `(pipeline,
    /// iteration)`.
    pub fn contains(&self, pipeline: &str, iteration: u64, hash: u64) -> bool {
        self.entries
            .binary_search_by(|e| {
                (e.pipeline.as_str(), e.iteration).cmp(&(pipeline, iteration))
            })
            .is_ok_and(|i| self.entries[i].hashes.binary_search(&hash).is_ok())
    }

    /// Total fingerprints across all buckets.
    pub fn total(&self) -> usize {
        self.entries.iter().map(|e| e.hashes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::BlockKey;
    use crate::store::{Role, StagingStore};
    use bytes::Bytes;

    fn block(pipeline: &str, iteration: u64, id: u64, name: &str) -> StoredBlock {
        StoredBlock {
            key: BlockKey::new(pipeline, id),
            name: name.to_string(),
            tenant: "default".to_string(),
            iteration,
            role: Role::Primary,
            fed: false,
            data: Bytes::from(vec![1u8; 8]),
            codec: 0,
            decoded_len: 8,
            plain: None,
        }
    }

    #[test]
    fn digest_buckets_by_pipeline_and_iteration() {
        let s = StagingStore::new();
        s.insert(block("a", 0, 1, "f"));
        s.insert(block("a", 0, 2, "f"));
        s.insert(block("a", 1, 1, "f"));
        s.insert(block("b", 0, 1, "f"));
        let d = StoreDigest::of(&s.snapshot());
        assert_eq!(d.entries.len(), 3);
        assert_eq!(d.total(), 4);
        assert!(d.contains("a", 0, copy_hash(1, "f")));
        assert!(d.contains("a", 0, copy_hash(2, "f")));
        assert!(d.contains("a", 1, copy_hash(1, "f")));
        assert!(d.contains("b", 0, copy_hash(1, "f")));
        // Absent: wrong iteration, wrong pipeline, wrong dataset.
        assert!(!d.contains("a", 2, copy_hash(1, "f")));
        assert!(!d.contains("c", 0, copy_hash(1, "f")));
        assert!(!d.contains("a", 0, copy_hash(1, "g")));
    }

    #[test]
    fn equal_holdings_digest_identically_regardless_of_insert_order() {
        let s1 = StagingStore::new();
        let s2 = StagingStore::new();
        for id in [3u64, 1, 2] {
            s1.insert(block("p", 0, id, "f"));
        }
        for id in [2u64, 3, 1] {
            s2.insert(block("p", 0, id, "f"));
        }
        assert_eq!(StoreDigest::of(&s1.snapshot()), StoreDigest::of(&s2.snapshot()));
    }

    #[test]
    fn distinct_datasets_of_one_block_get_distinct_fingerprints() {
        assert_ne!(copy_hash(1, "temperature"), copy_hash(1, "pressure"));
        assert_ne!(copy_hash(1, "f"), copy_hash(2, "f"));
    }

    #[test]
    fn empty_store_digests_empty() {
        let d = StoreDigest::of(&[]);
        assert!(d.entries.is_empty());
        assert_eq!(d.total(), 0);
        assert!(!d.contains("p", 0, 1));
    }
}
