//! Admission of a staged or pushed copy into the store, and the
//! conversion of a held copy into what the backend is handed.

use std::sync::atomic::Ordering;

use bytes::Bytes;

use store::{BlockKey, Role, StoredBlock};

use super::ColzaProvider;
use crate::backend::StagedBlock;
use crate::codec::{self, CodecError, CodecId};
use crate::protocol::{BlockMeta, TenantId};
use crate::ColzaError;

impl ColzaProvider {
    /// Records a staged or pushed copy. Insert is idempotent (stage
    /// retries, repair races). The backend is not involved: it is handed
    /// the iteration's primaries at `execute`.
    pub(super) fn admit(
        &self,
        pipeline: &str,
        meta: BlockMeta,
        role: Role,
        data: Bytes,
        plain_hint: Option<Bytes>,
    ) -> std::result::Result<(), String> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(ColzaError::draining().to_reply());
        }
        // A frame must decode to the size its metadata declares: the
        // header's length is what the decoder sizes its output by, so a
        // disagreeing (corrupt or forged) frame is refused before any
        // decode — on replicas too, which would otherwise hold it until
        // a promotion tried.
        if meta.codec != CodecId::Raw {
            let info = codec::frame_info(&data).map_err(|e| e.to_string())?;
            if info.decoded_len != meta.size {
                return Err(ColzaError::from(CodecError::LengthMismatch {
                    expected: meta.size,
                    got: info.decoded_len,
                })
                .to_string());
            }
        }
        // Chain frames (iteration deltas) are reconstructed eagerly on
        // *every* holder — primary and replicas alike — before the copy
        // is recorded: the reconstructed plain is what lets this holder
        // serve as the next diff's base, hand the block over after a
        // promotion, and seed fresh owners during repair, all after the
        // base frame itself was released at deactivate. A stateless
        // frame is decoded only where it will be handed over — on its
        // primary, here, so a corrupt frame fails the `stage` that
        // delivered it; a replica promoted later decodes at `execute`.
        let plain = if meta.codec.is_chain() {
            Some(self.chain_plain(pipeline, &meta, &data, plain_hint)?)
        } else if role == Role::Primary && meta.codec != CodecId::Raw {
            Some(codec::decode_block(meta.codec, &data, None).map_err(|e| e.to_string())?)
        } else {
            None
        };
        // Admission control: the tenant's staged-byte quota is checked
        // atomically with the insert. Quotas only bite when tenancy
        // enforcement is on; duplicates (stage retries, repair races)
        // are never refused. The refusal is the typed, retryable
        // backpressure signal — the client backs off and retries as the
        // tenant's earlier iterations release.
        let quota = {
            let cfg = self.qos.config();
            if cfg.enabled {
                cfg.config_for(&meta.tenant).staged_byte_quota
            } else {
                u64::MAX
            }
        };
        let encoded_bytes = data.len() as u64;
        let block = stored_block(pipeline, &meta, role, data, plain);
        let tenant = meta.tenant.as_str();
        let fresh = match self.store.admit(block, quota) {
            store::Admit::Fresh => {
                hpcsim::trace::counter_add(format!("colza.tenant.{tenant}.stage.blocks"), 1);
                hpcsim::trace::counter_add(
                    format!("colza.tenant.{tenant}.stage.bytes"),
                    encoded_bytes,
                );
                hpcsim::trace::counter_add(
                    format!("colza.tenant.{tenant}.stage.decoded_bytes"),
                    meta.size as u64,
                );
                true
            }
            store::Admit::Duplicate => false,
            store::Admit::OverQuota { used } => {
                hpcsim::trace::counter_add("colza.qos.quota.refused", 1);
                hpcsim::trace::counter_add(format!("colza.tenant.{tenant}.quota.refused"), 1);
                return Err(ColzaError::QuotaExceeded(format!(
                    "tenant {tenant:?} holds {used} staged bytes, quota {quota}"
                ))
                .to_reply());
            }
        };
        // Re-check after the insert: if a drain set the flag in between,
        // its snapshot may have missed this block. Undo and refuse — the
        // store mutex (insert vs. snapshot) makes the flag visible here
        // whenever the snapshot ran first.
        if self.draining.load(Ordering::SeqCst) {
            if fresh {
                self.store
                    .remove(pipeline, meta.iteration, meta.block_id, &meta.name);
            }
            return Err(ColzaError::draining().to_reply());
        }
        Ok(())
    }

    /// Reconstructs the plain payload of a chain frame and advances this
    /// server's chain state for `(pipeline, block_id, name)`. Anchors
    /// (`DeltaFull`) decode standalone; diffs decode against the cached
    /// base — or arrive with the sender's reconstructed plain (repair
    /// and rebalance pushes), which seeds a fresh owner directly. Admits
    /// are idempotent: re-admitting the newest frame reuses the cache.
    fn chain_plain(
        &self,
        pipeline: &str,
        meta: &BlockMeta,
        data: &Bytes,
        hint: Option<Bytes>,
    ) -> std::result::Result<Bytes, String> {
        let key = (pipeline.to_string(), meta.block_id, meta.name.clone());
        // The decode runs outside the `codec_bases` lock — a clone of the
        // base is a refcount — so two stage RPCs on this server do not
        // wait on each other's megabyte decode.
        let plain = match meta.codec {
            CodecId::DeltaFull => {
                codec::decode_block(CodecId::DeltaFull, data, None).map_err(|e| e.to_string())?
            }
            CodecId::DeltaDiff => {
                if let Some(h) = hint {
                    h
                } else {
                    let info = codec::frame_info(data).map_err(|e| e.to_string())?;
                    let base_iteration = info.base_iteration.unwrap_or(0);
                    let held = self.codec_bases.lock().get(&key).cloned();
                    match held {
                        Some((it, base)) if it == base_iteration => {
                            codec::decode_block(CodecId::DeltaDiff, data, Some(&base))
                                .map_err(|e| e.to_string())?
                        }
                        // Idempotent re-admit of the frame we already
                        // advanced past (stage retries, repair races).
                        Some((it, plain)) if it == meta.iteration => plain,
                        _ => {
                            return Err(CodecError::MissingDeltaBase { base_iteration }.to_string())
                        }
                    }
                }
            }
            _ => unreachable!("chain_plain called for a non-chain codec"),
        };
        let mut bases = self.codec_bases.lock();
        // Never regress the chain: a stale re-admit (an old frame pushed
        // by a lagging peer) must not clobber a newer base.
        match bases.get(&key) {
            Some((it, _)) if *it > meta.iteration => {}
            _ => {
                bases.insert(key, (meta.iteration, plain.clone()));
            }
        }
        Ok(plain)
    }
}

/// A held primary as the backend receives it — always decoded: the plain
/// kept at admission where there is one, a decode now for a stateless
/// frame promoted since (raw passes through by refcount).
pub(super) fn staged_block(b: &StoredBlock) -> std::result::Result<StagedBlock, String> {
    let codec = CodecId::from_u8(b.codec).map_err(|e| e.to_string())?;
    let data = match &b.plain {
        Some(plain) => plain.clone(),
        None if codec.is_chain() => {
            return Err("chain-coded copy holds no reconstructed payload".to_string())
        }
        None => codec::decode_block(codec, &b.data, None).map_err(|e| e.to_string())?,
    };
    Ok(StagedBlock {
        meta: block_meta(b),
        data,
    })
}

/// The store's record of a copy described by wire metadata.
pub(super) fn stored_block(
    pipeline: &str,
    meta: &BlockMeta,
    role: Role,
    data: Bytes,
    plain: Option<Bytes>,
) -> StoredBlock {
    StoredBlock {
        key: BlockKey::new(pipeline, meta.block_id),
        name: meta.name.clone(),
        tenant: meta.tenant.as_str().to_string(),
        iteration: meta.iteration,
        role,
        fed: false,
        data,
        codec: meta.codec.as_u8(),
        decoded_len: meta.size,
        plain,
    }
}

/// The wire metadata of a held copy (the inverse of [`stored_block`]).
pub(super) fn block_meta(b: &StoredBlock) -> BlockMeta {
    BlockMeta {
        name: b.name.clone(),
        block_id: b.key.block_id,
        iteration: b.iteration,
        size: b.decoded_len,
        codec: CodecId::from_u8(b.codec).unwrap_or(CodecId::Raw),
        encoded_size: b.data.len(),
        tenant: TenantId::new(b.tenant.clone()),
    }
}
