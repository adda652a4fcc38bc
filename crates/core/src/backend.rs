//! Pipelines: the `colza::Backend` abstraction and its factory registry.
//!
//! In the paper, pipelines are C++ classes inheriting from
//! `colza::Backend`, compiled to shared libraries and `dlopen`ed on
//! demand. Rust has no stable in-process dynamic loading story, so the
//! reproduction replaces `dlopen` with a **process-wide factory registry**
//! keyed by library name (DESIGN.md §2); everything else — instantiation
//! on demand with a JSON configuration, one instance per server, the
//! activate/execute/deactivate lifecycle — matches the paper. Staged data
//! is the one departure: the provider's store is its only holder, and a
//! backend is handed its blocks when it executes instead of collecting
//! them one `stage` at a time.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use vizkit::Controller;

use crate::error::{ColzaError, Result};
use crate::protocol::{BlockMeta, ExecOutcome};

/// A staged block as a backend receives it: metadata plus the decoded
/// payload.
#[derive(Debug, Clone)]
pub struct StagedBlock {
    /// Block metadata from the client.
    pub meta: BlockMeta,
    /// The serialized dataset (parse with
    /// [`crate::codec::dataset_from_bytes`]).
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
/// Methods mirror the protocol's RPCs, except that a backend never sees
/// a `stage`: `execute` receives the blocks this server is primary for,
/// in store key order, along with the iteration's communicator
/// controller, which is how parallel pipelines (Catalyst) do collective
/// work. Each call is handed its whole input, so a re-executed iteration
/// renders exactly what the second call was given.
pub trait Backend: Send + Sync {
    /// A new analysis iteration is starting.
    fn activate(&self, iteration: u64) -> std::result::Result<(), String>;
    /// Run the analysis collectively over `blocks`. Reactive backends may
    /// report [`ExecOutcome::Skipped`] when a trigger decided against
    /// running this iteration (DESIGN.md §15).
    fn execute(
        &self,
        iteration: u64,
        blocks: &[StagedBlock],
        ctrl: &Controller,
    ) -> std::result::Result<ExecOutcome, String>;
    /// The iteration is complete.
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

/// A no-op pipeline that only counts calls and records what it was last
/// handed — the smallest useful backend, handy for protocol tests and
/// overhead measurements.
#[derive(Default)]
pub struct NullBackend {
    /// `(activates, executes, deactivates)` counters.
    pub calls: Mutex<(u64, u64, u64)>,
    /// `(payload bytes, block ids)` of the last `execute`'s blocks.
    handed: Mutex<(u64, Vec<u64>)>,
}

impl NullBackend {
    /// Reads a report fetched from a null backend (`fetch_result`) back
    /// into `(payload bytes, block ids)` — the inverse of its
    /// [`Backend::take_result`].
    pub fn handed(report: &[u8]) -> (u64, Vec<u64>) {
        let mut words = report
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        (words.next().unwrap_or(0), words.collect())
    }
}

impl Backend for NullBackend {
    fn activate(&self, _iteration: u64) -> std::result::Result<(), String> {
        self.calls.lock().0 += 1;
        Ok(())
    }

    fn execute(
        &self,
        _iteration: u64,
        blocks: &[StagedBlock],
        _ctrl: &Controller,
    ) -> std::result::Result<ExecOutcome, String> {
        self.calls.lock().1 += 1;
        *self.handed.lock() = (
            blocks.iter().map(|b| b.data.len() as u64).sum(),
            blocks.iter().map(|b| b.meta.block_id).collect(),
        );
        Ok(ExecOutcome::Ran)
    }

    fn deactivate(&self, _iteration: u64) -> std::result::Result<(), String> {
        self.calls.lock().2 += 1;
        Ok(())
    }

    /// Little-endian `u64` words: the byte total of the last `execute`'s
    /// blocks, then the id of each block in hand-over order.
    fn take_result(&self) -> Option<Vec<u8>> {
        let (bytes, ids) = &*self.handed.lock();
        Some(
            std::iter::once(bytes)
                .chain(ids)
                .flat_map(|w| w.to_le_bytes())
                .collect(),
        )
    }
}

/// The Catalyst visualization pipeline backend: parses the `vizkit`
/// datasets it is handed and renders them with the configured script.
pub struct CatalystBackend {
    pipeline: catalyst::CatalystPipeline,
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
            last_image: Mutex::new(None),
        })
    }

    /// Builds from an in-memory script (used by tests and benches).
    pub fn from_script(script: catalyst::PipelineScript) -> Self {
        Self {
            pipeline: catalyst::CatalystPipeline::new(script, catalyst::CatalystConfig::default()),
            last_image: Mutex::new(None),
        }
    }
}

impl Backend for CatalystBackend {
    fn activate(&self, _iteration: u64) -> std::result::Result<(), String> {
        Ok(())
    }

    fn execute(
        &self,
        iteration: u64,
        blocks: &[StagedBlock],
        ctrl: &Controller,
    ) -> std::result::Result<ExecOutcome, String> {
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

    fn deactivate(&self, _iteration: u64) -> std::result::Result<(), String> {
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
    fn null_backend_counts_lifecycle_and_reports_its_last_hand_over() {
        let b = NullBackend::default();
        let block = |id: u64, data: &'static [u8]| StagedBlock {
            meta: BlockMeta::new("x".to_string(), id, 1, data.len()),
            data: Bytes::from_static(data),
        };
        let ctrl = Controller::new(Arc::new(vizkit::controller::DummyComm));
        b.activate(1).unwrap();
        b.execute(1, &[block(4, &[1, 2, 3]), block(7, &[4, 5])], &ctrl)
            .unwrap();
        assert_eq!(
            NullBackend::handed(&b.take_result().unwrap()),
            (5, vec![4, 7])
        );
        // A second execute of the iteration replaces the record.
        b.execute(1, &[block(7, &[4, 5])], &ctrl).unwrap();
        b.deactivate(1).unwrap();
        assert_eq!(*b.calls.lock(), (1, 2, 1));
        assert_eq!(NullBackend::handed(&b.take_result().unwrap()), (2, vec![7]));
    }

    /// A little sphere-field image block centred at `c` on every axis.
    fn sphere_block(id: u64, c: f32) -> StagedBlock {
        let mut img = vizkit::ImageData::new([8, 8, 8]);
        let mut vals = Vec::new();
        for k in 0..8 {
            for j in 0..8 {
                for i in 0..8 {
                    let d =
                        ((i as f32 - c).powi(2) + (j as f32 - c).powi(2) + (k as f32 - c).powi(2))
                            .sqrt();
                    vals.push(30.0 - d * 4.0);
                }
            }
        }
        img.point_data
            .set("iterations", vizkit::DataArray::F32(vals));
        let payload = crate::codec::dataset_to_bytes(&vizkit::DataSet::Image(img));
        StagedBlock {
            meta: BlockMeta::new("mandelbulb".to_string(), id, 0, payload.len()),
            data: payload,
        }
    }

    #[test]
    fn catalyst_backend_roundtrip_serial() {
        let b = CatalystBackend::from_script(catalyst::PipelineScript::mandelbulb(24, 24));
        let ctrl = Controller::new(Arc::new(vizkit::controller::DummyComm));
        b.activate(0).unwrap();
        b.execute(0, &[sphere_block(0, 3.5)], &ctrl).unwrap();
        let img_bytes = b.take_result().expect("root image");
        let img = vizkit::Image::from_bytes(&img_bytes);
        assert!(img.coverage() > 0.0);
        b.deactivate(0).unwrap();
    }

    #[test]
    fn re_executed_iteration_renders_only_the_second_hand_over() {
        let ctrl = Controller::new(Arc::new(vizkit::controller::DummyComm));
        let render = |b: &CatalystBackend, blocks: &[StagedBlock]| {
            b.execute(0, blocks, &ctrl).unwrap();
            b.take_result().expect("root image")
        };
        let script = || catalyst::PipelineScript::mandelbulb(24, 24);
        let (first, second) = (sphere_block(0, 2.0), sphere_block(1, 5.0));

        let b = CatalystBackend::from_script(script());
        b.activate(0).unwrap();
        let both = render(&b, &[first, second.clone()]);
        // The aborted attempt's blocks are not this call's input.
        let again = render(&b, std::slice::from_ref(&second));
        let fresh = render(&CatalystBackend::from_script(script()), &[second]);
        assert_eq!(again, fresh, "the re-execute rendered a stale block");
        assert_ne!(
            again, both,
            "the two hand-overs must differ for the test to bite"
        );
    }
}
