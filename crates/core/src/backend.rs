//! Pipelines: the `colza::Backend` abstraction and its factory registry.
//!
//! In the paper, pipelines are C++ classes inheriting from
//! `colza::Backend`, compiled to shared libraries and `dlopen`ed on
//! demand. Rust has no stable in-process dynamic loading story, so the
//! reproduction replaces `dlopen` with a **process-wide factory registry**
//! keyed by library name (DESIGN.md §2); everything else — instantiation
//! on demand with a JSON configuration, one instance per server, the
//! four-method lifecycle — matches the paper.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use vizkit::Controller;

use crate::error::{ColzaError, Result};
use crate::protocol::{BlockMeta, ExecOutcome};

/// A block staged on a server: metadata plus the pulled payload.
#[derive(Debug, Clone)]
pub struct StagedBlock {
    /// Block metadata from the client.
    pub meta: BlockMeta,
    /// Raw payload pulled over RDMA (decode with [`crate::codec`]).
    pub data: Bytes,
}

/// Context a backend is constructed with.
pub struct BackendCtx {
    /// This server's address.
    pub self_addr: na::Address,
    /// JSON configuration string from `create_pipeline`.
    pub config: String,
}

/// The pipeline interface (the paper's `colza::Backend`).
///
/// Methods mirror the four RPCs; `execute` additionally receives the
/// iteration's communicator controller, which is how parallel pipelines
/// (Catalyst) do collective work.
pub trait Backend: Send + Sync {
    /// A new analysis iteration is starting.
    fn activate(&self, iteration: u64) -> std::result::Result<(), String>;
    /// A block of data has been staged for this pipeline.
    fn stage(&self, block: StagedBlock) -> std::result::Result<(), String>;
    /// A previously staged block was demoted off this server (its primary
    /// moved elsewhere during migration or repair) and must no longer be
    /// part of this server's `execute`. Default: no-op, for backends that
    /// never run under replication.
    fn unstage(&self, _meta: &BlockMeta) -> std::result::Result<(), String> {
        Ok(())
    }
    /// Run the analysis collectively over the staged data. Reactive
    /// backends may report [`ExecOutcome::Skipped`] when a trigger
    /// decided against running this iteration (DESIGN.md §15).
    fn execute(
        &self,
        iteration: u64,
        ctrl: &Controller,
    ) -> std::result::Result<ExecOutcome, String>;
    /// The iteration is complete; staged data may be released.
    fn deactivate(&self, iteration: u64) -> std::result::Result<(), String>;
    /// Optional: the latest result produced by this pipeline (e.g. a
    /// rendered image), for retrieval by tools.
    fn take_result(&self) -> Option<Vec<u8>> {
        None
    }
}

/// A backend factory ("the shared library's entry point"). Fallible:
/// a malformed configuration (bad JSON, a trigger expression that does
/// not compile) is reported as a typed error at `create_pipeline` time,
/// never a panic on the server.
pub type BackendFactory =
    Arc<dyn Fn(&BackendCtx) -> std::result::Result<Arc<dyn Backend>, String> + Send + Sync>;

static REGISTRY: RwLock<Option<HashMap<String, BackendFactory>>> = RwLock::new(None);

/// Registers a backend library under a name (what the paper does by
/// placing a `.so` on disk). Idempotent per name; later registrations
/// replace earlier ones.
pub fn register_library(library: &str, factory: BackendFactory) {
    REGISTRY
        .write()
        .get_or_insert_with(HashMap::new)
        .insert(library.to_string(), factory);
}

/// Instantiates a backend from a registered library.
pub fn instantiate(library: &str, ctx: &BackendCtx) -> Result<Arc<dyn Backend>> {
    ensure_builtins();
    let reg = REGISTRY.read();
    let factory = reg
        .as_ref()
        .and_then(|r| r.get(library))
        .cloned()
        .ok_or_else(|| ColzaError::NoSuchLibrary(library.to_string()))?;
    drop(reg);
    factory(ctx).map_err(ColzaError::InvalidScript)
}

/// Registers the built-in libraries shipped with this reproduction.
fn ensure_builtins() {
    let mut reg = REGISTRY.write();
    let reg = reg.get_or_insert_with(HashMap::new);
    reg.entry("catalyst".to_string()).or_insert_with(|| {
        Arc::new(|ctx: &BackendCtx| {
            CatalystBackend::from_config(&ctx.config)
                .map(|b| Arc::new(b) as Arc<dyn Backend>)
        })
    });
    reg.entry("null".to_string()).or_insert_with(|| {
        Arc::new(|_: &BackendCtx| Ok(Arc::new(NullBackend::default()) as Arc<dyn Backend>))
    });
}

/// A no-op pipeline that only counts calls — the smallest useful backend,
/// handy for protocol tests and overhead measurements.
#[derive(Default)]
pub struct NullBackend {
    /// `(activates, stages, executes, deactivates)` counters.
    pub calls: Mutex<(u64, u64, u64, u64)>,
    staged_bytes: Mutex<u64>,
}

impl Backend for NullBackend {
    fn activate(&self, _iteration: u64) -> std::result::Result<(), String> {
        self.calls.lock().0 += 1;
        Ok(())
    }

    fn stage(&self, block: StagedBlock) -> std::result::Result<(), String> {
        self.calls.lock().1 += 1;
        *self.staged_bytes.lock() += block.data.len() as u64;
        Ok(())
    }

    fn unstage(&self, meta: &BlockMeta) -> std::result::Result<(), String> {
        let mut bytes = self.staged_bytes.lock();
        *bytes = bytes.saturating_sub(meta.size as u64);
        Ok(())
    }

    fn execute(
        &self,
        _iteration: u64,
        _ctrl: &Controller,
    ) -> std::result::Result<ExecOutcome, String> {
        self.calls.lock().2 += 1;
        Ok(ExecOutcome::Ran)
    }

    fn deactivate(&self, _iteration: u64) -> std::result::Result<(), String> {
        self.calls.lock().3 += 1;
        Ok(())
    }

    fn take_result(&self) -> Option<Vec<u8>> {
        Some(self.staged_bytes.lock().to_le_bytes().to_vec())
    }
}

/// The Catalyst visualization pipeline backend: stages `vizkit` datasets
/// and renders them with the configured script on `execute`.
pub struct CatalystBackend {
    pipeline: catalyst::CatalystPipeline,
    staged: Mutex<HashMap<u64, Vec<StagedBlock>>>,
    last_image: Mutex<Option<Vec<u8>>>,
}

impl CatalystBackend {
    /// Builds from a JSON pipeline-script configuration.
    pub fn from_config(config: &str) -> std::result::Result<Self, String> {
        Ok(Self {
            pipeline: catalyst::CatalystPipeline::from_json(
                config,
                catalyst::CatalystConfig::default(),
            )?,
            staged: Mutex::new(HashMap::new()),
            last_image: Mutex::new(None),
        })
    }

    /// Builds from an in-memory script (used by tests and benches).
    pub fn from_script(script: catalyst::PipelineScript) -> Self {
        Self {
            pipeline: catalyst::CatalystPipeline::new(script, catalyst::CatalystConfig::default()),
            staged: Mutex::new(HashMap::new()),
            last_image: Mutex::new(None),
        }
    }
}

impl Backend for CatalystBackend {
    fn activate(&self, iteration: u64) -> std::result::Result<(), String> {
        self.staged.lock().entry(iteration).or_default();
        Ok(())
    }

    fn stage(&self, block: StagedBlock) -> std::result::Result<(), String> {
        self.staged
            .lock()
            .entry(block.meta.iteration)
            .or_default()
            .push(block);
        Ok(())
    }

    fn unstage(&self, meta: &BlockMeta) -> std::result::Result<(), String> {
        if let Some(blocks) = self.staged.lock().get_mut(&meta.iteration) {
            blocks.retain(|b| b.meta.block_id != meta.block_id);
        }
        Ok(())
    }

    fn execute(
        &self,
        iteration: u64,
        ctrl: &Controller,
    ) -> std::result::Result<ExecOutcome, String> {
        let mut blocks = self
            .staged
            .lock()
            .get(&iteration)
            .cloned()
            .unwrap_or_default();
        blocks.sort_by_key(|b| b.meta.block_id);
        let datasets: Vec<vizkit::DataSet> = blocks
            .iter()
            .map(|b| crate::codec::dataset_from_bytes(&b.data).map_err(|e| e.to_string()))
            .collect::<std::result::Result<_, _>>()?;
        let outcome = self.pipeline.execute_reactive(&datasets, ctrl, iteration)?;
        if let Some(img) = outcome.image {
            *self.last_image.lock() = Some(img.to_bytes());
        }
        Ok(if outcome.skipped {
            ExecOutcome::Skipped
        } else {
            ExecOutcome::Ran
        })
    }

    fn deactivate(&self, iteration: u64) -> std::result::Result<(), String> {
        self.staged.lock().remove(&iteration);
        Ok(())
    }

    fn take_result(&self) -> Option<Vec<u8>> {
        self.last_image.lock().take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_libraries_instantiate() {
        let ctx = BackendCtx {
            self_addr: na::Address(0),
            config: catalyst::PipelineScript::mandelbulb(16, 16).to_json(),
        };
        assert!(instantiate("catalyst", &ctx).is_ok());
        let ctx2 = BackendCtx {
            self_addr: na::Address(0),
            config: String::new(),
        };
        assert!(instantiate("null", &ctx2).is_ok());
        assert!(matches!(
            instantiate("missing.so", &ctx2),
            Err(ColzaError::NoSuchLibrary(_))
        ));
    }

    #[test]
    fn malformed_script_is_a_typed_error_not_a_panic() {
        // Broken JSON and a broken trigger expression both surface as
        // InvalidScript from the factory.
        for config in [
            "not json at all",
            r#"{"render": {"mode": "surface", "width": 8, "height": 8, "field": null,
                "range": null, "camera": null},
                "triggers": [{"when": "max(u >", "action": "run"}]}"#,
        ] {
            let ctx = BackendCtx {
                self_addr: na::Address(0),
                config: config.to_string(),
            };
            assert!(matches!(
                instantiate("catalyst", &ctx),
                Err(ColzaError::InvalidScript(_))
            ));
        }
    }

    #[test]
    fn custom_library_registration() {
        register_library(
            "mylib",
            Arc::new(|_| Ok(Arc::new(NullBackend::default()) as Arc<dyn Backend>)),
        );
        let ctx = BackendCtx {
            self_addr: na::Address(1),
            config: String::new(),
        };
        assert!(instantiate("mylib", &ctx).is_ok());
    }

    #[test]
    fn null_backend_counts_lifecycle() {
        let b = NullBackend::default();
        b.activate(1).unwrap();
        b.stage(StagedBlock {
            meta: BlockMeta::new("x".to_string(), 0, 1, 3),
            data: Bytes::from_static(&[1, 2, 3]),
        })
        .unwrap();
        let ctrl = Controller::new(Arc::new(vizkit::controller::DummyComm));
        b.execute(1, &ctrl).unwrap();
        b.deactivate(1).unwrap();
        assert_eq!(*b.calls.lock(), (1, 1, 1, 1));
        assert_eq!(b.take_result().unwrap(), 3u64.to_le_bytes().to_vec());
    }

    #[test]
    fn catalyst_backend_roundtrip_serial() {
        let b = CatalystBackend::from_script(catalyst::PipelineScript::mandelbulb(24, 24));
        let ctrl = Controller::new(Arc::new(vizkit::controller::DummyComm));
        b.activate(0).unwrap();
        // Stage a little sphere-field image block.
        let mut img = vizkit::ImageData::new([8, 8, 8]);
        let mut vals = Vec::new();
        for k in 0..8 {
            for j in 0..8 {
                for i in 0..8 {
                    let d = ((i as f32 - 3.5).powi(2)
                        + (j as f32 - 3.5).powi(2)
                        + (k as f32 - 3.5).powi(2))
                    .sqrt();
                    vals.push(30.0 - d * 4.0);
                }
            }
        }
        img.point_data
            .set("iterations", vizkit::DataArray::F32(vals));
        let payload = crate::codec::dataset_to_bytes(&vizkit::DataSet::Image(img));
        b.stage(StagedBlock {
            meta: BlockMeta::new("mandelbulb".to_string(), 0, 0, payload.len()),
            data: payload,
        })
        .unwrap();
        b.execute(0, &ctrl).unwrap();
        let img_bytes = b.take_result().expect("root image");
        let img = vizkit::Image::from_bytes(&img_bytes);
        assert!(img.coverage() > 0.0);
        b.deactivate(0).unwrap();
        // Staged data released.
        assert!(b.staged.lock().get(&0).is_none());
    }
}
