//! Pipeline execution.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use vizkit::data::{ArrayStats, DataSet, PolyData, UnstructuredGrid};
use vizkit::filters;
use vizkit::math::{vec3, Vec3};
use vizkit::render::{render_surface, render_volume, Camera, ColorMap, Image, TransferFunction};
use vizkit::Controller;

use crate::icet_context;
use crate::script::{CameraSpec, FilterSpec, PipelineScript, RenderMode};
use crate::trigger::{Reparam, TriggerProgram, TriggerState};

/// Catalyst runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct CatalystConfig {
    /// Virtual cost charged on a process's *first* `execute`: VTK shared
    /// libraries loading plus Python interpreter start. The paper observes
    /// this as the large first-iteration time (§III-C2) and as the spike
    /// whenever a joined node runs its first iteration (Figs. 9, 10).
    pub init_cost_ns: u64,
}

impl Default for CatalystConfig {
    fn default() -> Self {
        Self {
            init_cost_ns: 3 * hpcsim::SEC,
        }
    }
}

/// What one reactive execution produced. `skipped` means the trigger
/// program decided against running this iteration — a normal outcome,
/// distinct from any error: no filters ran, no image was composited, and
/// (aside from the one stats allreduce) no virtual time was charged.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The composited image on the root rank of iterations that ran.
    pub image: Option<Image>,
    /// Whether the trigger program skipped this iteration.
    pub skipped: bool,
}

/// An instantiated pipeline: a parsed script plus per-process state.
pub struct CatalystPipeline {
    script: PipelineScript,
    config: CatalystConfig,
    initialized: AtomicBool,
    triggers: TriggerProgram,
    trigger_state: Mutex<TriggerState>,
}

impl CatalystPipeline {
    /// Builds a pipeline from a parsed script.
    ///
    /// Panics when the script's trigger section does not compile; scripts
    /// from untrusted input go through [`Self::from_json`], which
    /// validates triggers and returns a typed error instead.
    pub fn new(script: PipelineScript, config: CatalystConfig) -> Self {
        Self::try_new(script, config).expect("pipeline script triggers must compile")
    }

    /// Builds a pipeline, compiling the trigger section fallibly.
    pub fn try_new(script: PipelineScript, config: CatalystConfig) -> Result<Self, String> {
        let triggers = script.compile_triggers().map_err(|e| e.to_string())?;
        Ok(Self {
            script,
            config,
            initialized: AtomicBool::new(false),
            triggers,
            trigger_state: Mutex::new(TriggerState::new()),
        })
    }

    /// Builds a pipeline from a JSON configuration string (the payload of
    /// Colza's `create_pipeline`).
    pub fn from_json(json: &str, config: CatalystConfig) -> Result<Self, String> {
        Self::try_new(PipelineScript::from_json(json)?, config)
    }

    /// The script.
    pub fn script(&self) -> &PipelineScript {
        &self.script
    }

    /// The compiled trigger program.
    pub fn triggers(&self) -> &TriggerProgram {
        &self.triggers
    }

    /// Whether the first-execute initialization has already been paid.
    pub fn is_initialized(&self) -> bool {
        self.initialized.load(Ordering::Acquire)
    }

    /// Executes the pipeline over this rank's staged blocks. All ranks of
    /// `ctrl` must call collectively; the compositing root (rank 0)
    /// receives `Some(image)`. Compatibility entry point for untriggered
    /// pipelines — triggered ones should call [`Self::execute_reactive`]
    /// with the real iteration number.
    pub fn execute(&self, blocks: &[DataSet], ctrl: &Controller) -> Result<Option<Image>, String> {
        self.execute_reactive(blocks, ctrl, 0).map(|o| o.image)
    }

    /// Reactive execution (DESIGN.md §15): evaluates the script's trigger
    /// program against fused global statistics of the staged data, then
    /// either runs the pipeline (possibly re-parameterized by fired
    /// triggers) or skips it. Deterministic across ranks: the predicate
    /// inputs come from one allreduce, so every rank reaches the same
    /// decision independently.
    pub fn execute_reactive(
        &self,
        blocks: &[DataSet],
        ctrl: &Controller,
        iteration: u64,
    ) -> Result<PipelineOutcome, String> {
        let spec = &self.script.render;
        let mut plan = RenderPlan::default();
        let mut precomputed = None;

        if !self.triggers.is_empty() {
            let _sp = hpcsim::trace::span("catalyst", "catalyst.trigger.eval");
            // The agreed field layout: every field a trigger term reads,
            // plus the render field when the script needs a computed
            // color range — so the render reuses this same collective.
            let mut local: BTreeMap<String, ArrayStats> = BTreeMap::new();
            for f in self.triggers.fields() {
                local.insert(f.clone(), ArrayStats::empty());
            }
            if spec.range.is_none() {
                if let Some(f) = spec.field.as_deref() {
                    local.entry(f.to_string()).or_insert_with(ArrayStats::empty);
                }
            }
            for (name, acc) in local.iter_mut() {
                for b in blocks {
                    acc.merge(&b.field_stats(name));
                }
            }
            let stats = global_stats(ctrl, local_blocks_bounds(blocks), &local)?;
            let decision = {
                let mut st = self.trigger_state.lock();
                self.triggers
                    .evaluate(iteration, &stats.fields, &mut st)
                    .map_err(|e| format!("trigger evaluation failed: {e}"))?
            };
            hpcsim::trace::counter_add("colza.trigger.evaluated", 1);
            hpcsim::trace::counter_add("colza.trigger.fired", decision.fired);
            if !decision.run {
                hpcsim::trace::counter_add("colza.trigger.skipped", 1);
                return Ok(PipelineOutcome {
                    image: None,
                    skipped: true,
                });
            }
            hpcsim::trace::counter_add("colza.trigger.reparam", decision.reparams.len() as u64);
            for r in decision.reparams {
                match r {
                    Reparam::Contour { field, value } => {
                        plan.contours.insert(field, vec![value]);
                    }
                    Reparam::Range { lo, hi } => plan.range = Some((lo, hi)),
                    Reparam::CameraZoom(z) => plan.zoom = z,
                }
            }
            precomputed = Some(stats);
        }

        let ctx = hpcsim::process::try_current();
        // Catalyst initialization is paid on the first iteration that
        // actually runs — skipped iterations never load the libraries.
        if !self.initialized.swap(true, Ordering::AcqRel) {
            if let Some(ctx) = &ctx {
                ctx.advance(self.config.init_cost_ns);
            }
        }
        let charge = |f: &mut dyn FnMut() -> Result<LocalRender, String>| match &ctx {
            Some(ctx) => ctx.charge_compute(f),
            None => f(),
        };

        let mut produce = || -> Result<LocalRender, String> {
            match spec.mode {
                RenderMode::Surface => {
                    self.render_surface_local(blocks, ctrl, &plan, precomputed.as_ref())
                }
                RenderMode::Volume => {
                    self.render_volume_local(blocks, ctrl, &plan, precomputed.as_ref())
                }
            }
        };
        let local = charge(&mut produce)?;

        // Composite across the staging area through the converted
        // communicator (the vtkIceTContext path).
        let icet_comm = icet_context::icet_comm_for(ctrl.comm())?;
        let (op, strategy, order) = match spec.mode {
            RenderMode::Surface => (icet::CompositeOp::Closest, spec.strategy.to_icet(), None),
            RenderMode::Volume => {
                // Visibility order: ranks sorted by view depth, resolved
                // at the root from gathered local depths.
                let depth_bytes = local.view_depth.to_le_bytes();
                let gathered = ctrl.comm().gather(&depth_bytes, 0)?;
                let order = gathered.map(|parts| {
                    let mut order: Vec<usize> = (0..parts.len()).collect();
                    let depths: Vec<f32> = parts
                        .iter()
                        .map(|p| f32::from_le_bytes(p[..4].try_into().unwrap()))
                        .collect();
                    order.sort_by(|&a, &b| depths[a].total_cmp(&depths[b]));
                    order
                });
                (icet::CompositeOp::Blend, icet::Strategy::Direct, order)
            }
        };
        let image = icet::composite(
            icet_comm.as_ref(),
            local.image,
            op,
            strategy,
            order.as_deref(),
            0,
        )?;
        Ok(PipelineOutcome {
            image,
            skipped: false,
        })
    }

    fn render_surface_local(
        &self,
        blocks: &[DataSet],
        ctrl: &Controller,
        plan: &RenderPlan,
        precomputed: Option<&GlobalStats>,
    ) -> Result<LocalRender, String> {
        let spec = &self.script.render;
        // Run the filter chain on each block and merge the surfaces.
        let mut merged = PolyData::new();
        for block in blocks {
            let poly = self.apply_filters(block, plan)?;
            if merged.points.is_empty() {
                merged = poly;
            } else {
                merged.append(&poly);
            }
        }
        // Collective consensus on camera framing and color range — one
        // fused allreduce carrying bounds and any needed field stats
        // (reused from the trigger evaluation when it already ran one).
        let stats = match precomputed {
            Some(s) => s.clone(),
            None => {
                let mut local = BTreeMap::new();
                if spec.range.is_none() && plan.range.is_none() {
                    if let Some(f) = spec.field.as_deref() {
                        let s = merged
                            .point_data
                            .get(f)
                            .map(|a| a.stats())
                            .unwrap_or_else(ArrayStats::empty);
                        local.insert(f.to_string(), s);
                    }
                }
                global_stats(ctrl, merged.bounds(), &local)?
            }
        };
        let camera = self.camera(stats.bounds, plan.zoom);
        let range = plan
            .range
            .or(spec.range)
            .unwrap_or_else(|| stats.field_range(spec.field.as_deref()));
        let colors = ColorMap::by_name(&spec.colormap, range);
        let image = render_surface(
            &merged,
            &camera,
            &colors,
            spec.field.as_deref(),
            spec.width,
            spec.height,
        );
        let center = merged
            .bounds()
            .map(|(lo, hi)| (lo + hi) * 0.5)
            .unwrap_or_default();
        Ok(LocalRender {
            view_depth: camera.view_depth(center),
            image,
        })
    }

    fn render_volume_local(
        &self,
        blocks: &[DataSet],
        ctrl: &Controller,
        plan: &RenderPlan,
        precomputed: Option<&GlobalStats>,
    ) -> Result<LocalRender, String> {
        let spec = &self.script.render;
        let field = spec
            .field
            .as_deref()
            .ok_or("volume rendering needs a field")?;
        // Merge this rank's unstructured blocks and resample.
        let ugrids: Vec<&UnstructuredGrid> =
            blocks.iter().filter_map(|b| b.as_ugrid()).collect();
        let merged = filters::merge_blocks(&ugrids);
        let dims = if spec.adaptive_resample {
            // Grid resolution tracks the local mesh size, so rendering
            // cost grows with the data (real unstructured volume
            // rendering behaves this way).
            let n = ((merged.num_cells() as f64).cbrt() * 1.6).clamp(16.0, 96.0) as usize;
            [n, n, n]
        } else {
            spec.resample_dims
        };
        // A server that holds no block has no cell field to resample: it
        // contributes a transparent frame.
        let vol = (merged.num_cells() > 0)
            .then(|| filters::resample_to_image(&merged, field, dims, f32::NEG_INFINITY));

        let stats = match precomputed {
            Some(s) => s.clone(),
            None => {
                let mut local = BTreeMap::new();
                if spec.range.is_none() && plan.range.is_none() {
                    let s = merged
                        .cell_data
                        .get(field)
                        .map(|a| a.stats())
                        .unwrap_or_else(ArrayStats::empty);
                    local.insert(field.to_string(), s);
                }
                global_stats(ctrl, merged.bounds(), &local)?
            }
        };
        let camera = self.camera(stats.bounds, plan.zoom);
        let range = plan
            .range
            .or(spec.range)
            .unwrap_or_else(|| stats.field_range(Some(field)));
        let tf = TransferFunction::with_opacity(
            ColorMap::by_name(&spec.colormap, range),
            vec![(0.0, 0.0), (0.35, spec.max_opacity * 0.3), (1.0, spec.max_opacity)],
        );
        let step = {
            let (lo, hi) = stats.bounds;
            ((hi - lo).length() / dims[0].max(16) as f32).max(1e-3)
        };
        let image = match &vol {
            None => Image::new(spec.width, spec.height),
            Some(vol) => render_volume(vol, field, &camera, &tf, spec.width, spec.height, step),
        };
        let center = merged
            .bounds()
            .map(|(lo, hi)| (lo + hi) * 0.5)
            .unwrap_or(camera.focal_point);
        Ok(LocalRender {
            view_depth: camera.view_depth(center),
            image,
        })
    }

    /// Runs the filter chain on one block, ending in a surface. Contour
    /// isovalues may be re-parameterized by a fired trigger.
    fn apply_filters(&self, block: &DataSet, plan: &RenderPlan) -> Result<PolyData, String> {
        enum Working {
            Img(vizkit::ImageData),
            UG(UnstructuredGrid),
            Poly(PolyData),
        }
        let mut cur = match block {
            DataSet::Image(i) => Working::Img(i.clone()),
            DataSet::UGrid(g) => Working::UG(g.clone()),
            DataSet::Poly(p) => Working::Poly(p.clone()),
        };
        for f in &self.script.filters {
            cur = match (f, cur) {
                (FilterSpec::Contour { field, isovalues }, Working::Img(img)) => {
                    let values = plan.contours.get(field).unwrap_or(isovalues);
                    Working::Poly(filters::contour(&img, field, values))
                }
                (FilterSpec::Clip { origin, normal }, Working::Poly(p)) => {
                    let plane = filters::Plane::through(
                        Vec3::from_array(*origin),
                        Vec3::from_array(*normal),
                    );
                    Working::Poly(filters::clip(&p, plane))
                }
                (FilterSpec::Threshold { field, min, max }, Working::UG(g)) => {
                    Working::UG(filters::threshold_cells(&g, field, *min, *max))
                }
                (f, _) => {
                    return Err(format!("filter {f:?} cannot apply to the current data type"))
                }
            };
        }
        match cur {
            Working::Poly(p) => Ok(p),
            Working::Img(_) | Working::UG(_) => {
                Err("pipeline must end in surface geometry for surface rendering".to_string())
            }
        }
    }

    fn camera(&self, bounds: (Vec3, Vec3), zoom: f64) -> Camera {
        let mut cam = match self.script.render.camera {
            Some(CameraSpec {
                position,
                focal_point,
                up,
                fovy_deg,
            }) => Camera {
                position: Vec3::from_array(position),
                focal_point: Vec3::from_array(focal_point),
                up: Vec3::from_array(up),
                fovy_deg,
                ..Camera::default()
            },
            None => Camera::fit_bounds(bounds.0, bounds.1),
        };
        // A camera(zoom) trigger scales the eye's distance to the feature
        // bounds by 1/zoom (zoom > 1 moves in).
        if zoom.is_finite() && zoom > 0.0 && zoom != 1.0 {
            let dir = cam.position - cam.focal_point;
            cam.position = cam.focal_point + dir * (1.0 / zoom as f32);
        }
        cam
    }
}

/// Per-execution render adjustments from fired triggers.
#[derive(Debug, Clone)]
struct RenderPlan {
    /// Contour isovalue overrides by filter field.
    contours: BTreeMap<String, Vec<f64>>,
    /// Color-range override.
    range: Option<(f32, f32)>,
    /// Camera zoom factor (1.0 = as scripted).
    zoom: f64,
}

impl Default for RenderPlan {
    fn default() -> Self {
        RenderPlan {
            contours: BTreeMap::new(),
            range: None,
            zoom: 1.0,
        }
    }
}

struct LocalRender {
    image: Image,
    view_depth: f32,
}

/// Fused global reduction result: spatial bounds plus per-field summary
/// statistics, all carried by one allreduce.
#[derive(Debug, Clone)]
pub struct GlobalStats {
    /// Global axis-aligned bounds (a unit box when every rank is empty,
    /// so cameras stay finite).
    pub bounds: (Vec3, Vec3),
    /// Global per-field statistics, keyed by field name.
    pub fields: BTreeMap<String, ArrayStats>,
}

impl GlobalStats {
    /// The color range for `field`: its global `(min, max)` as `f32`, or
    /// `(0, 1)` when the field is absent/empty everywhere (the historic
    /// `global_range` fallback).
    pub fn field_range(&self, field: Option<&str>) -> (f32, f32) {
        field
            .and_then(|f| self.fields.get(f))
            .filter(|s| !s.is_empty())
            .map(|s| (s.min as f32, s.max as f32))
            .unwrap_or((0.0, 1.0))
    }
}

/// Combined bounds of this rank's staged blocks.
fn local_blocks_bounds(blocks: &[DataSet]) -> Option<(Vec3, Vec3)> {
    let mut acc: Option<(Vec3, Vec3)> = None;
    for b in blocks {
        let bb = match b {
            DataSet::Image(i) => Some(i.bounds()),
            DataSet::UGrid(g) => g.bounds(),
            DataSet::Poly(p) => p.bounds(),
        };
        if let Some((lo, hi)) = bb {
            acc = Some(match acc {
                None => (lo, hi),
                Some((alo, ahi)) => (
                    vec3(alo.x.min(lo.x), alo.y.min(lo.y), alo.z.min(lo.z)),
                    vec3(ahi.x.max(hi.x), ahi.y.max(hi.y), ahi.z.max(hi.z)),
                ),
            });
        }
    }
    acc
}

/// The fused statistics collective: ONE allreduce carrying the spatial
/// bounds (6 × f32) plus, for every agreed field, the `ArrayStats`
/// monoid (min/max/sum as f64, count as u64 — 32 bytes each). All ranks
/// must pass the same field set, which callers derive from the script
/// alone, never from the data. `min`, `max`, `range` and `mean` of every
/// field all fall out of this single collective.
fn global_stats(
    ctrl: &Controller,
    local_bounds: Option<(Vec3, Vec3)>,
    local_fields: &BTreeMap<String, ArrayStats>,
) -> Result<GlobalStats, String> {
    hpcsim::trace::counter_add("colza.trigger.stats.collectives", 1);
    let (lo, hi) = local_bounds.unwrap_or((
        vec3(f32::INFINITY, f32::INFINITY, f32::INFINITY),
        vec3(f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY),
    ));
    let mut payload = Vec::with_capacity(24 + 32 * local_fields.len());
    for v in [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    for s in local_fields.values() {
        payload.extend_from_slice(&s.min.to_le_bytes());
        payload.extend_from_slice(&s.max.to_le_bytes());
        payload.extend_from_slice(&s.sum.to_le_bytes());
        payload.extend_from_slice(&s.count.to_le_bytes());
    }
    let nfields = local_fields.len();
    let fold = move |acc: &mut [u8], other: &[u8]| {
        for i in 0..6 {
            let a = f32::from_le_bytes(acc[i * 4..i * 4 + 4].try_into().unwrap());
            let b = f32::from_le_bytes(other[i * 4..i * 4 + 4].try_into().unwrap());
            let v = if i < 3 { a.min(b) } else { a.max(b) };
            acc[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        for i in 0..nfields {
            let at = 24 + i * 32;
            let f = |buf: &[u8], off: usize| {
                f64::from_le_bytes(buf[at + off..at + off + 8].try_into().unwrap())
            };
            let min = f(acc, 0).min(f(other, 0));
            let max = f(acc, 8).max(f(other, 8));
            let sum = f(acc, 16) + f(other, 16);
            let count = u64::from_le_bytes(acc[at + 24..at + 32].try_into().unwrap())
                + u64::from_le_bytes(other[at + 24..at + 32].try_into().unwrap());
            acc[at..at + 8].copy_from_slice(&min.to_le_bytes());
            acc[at + 8..at + 16].copy_from_slice(&max.to_le_bytes());
            acc[at + 16..at + 24].copy_from_slice(&sum.to_le_bytes());
            acc[at + 24..at + 32].copy_from_slice(&count.to_le_bytes());
        }
    };
    let out = ctrl.comm().allreduce(&payload, &fold)?;
    let f = |i: usize| f32::from_le_bytes(out[i * 4..i * 4 + 4].try_into().unwrap());
    let (lo, hi) = (vec3(f(0), f(1), f(2)), vec3(f(3), f(4), f(5)));
    let bounds = if lo.x > hi.x {
        // Every rank was empty: use a unit box so cameras stay finite.
        (vec3(0.0, 0.0, 0.0), vec3(1.0, 1.0, 1.0))
    } else {
        (lo, hi)
    };
    let mut fields = BTreeMap::new();
    for (i, name) in local_fields.keys().enumerate() {
        let at = 24 + i * 32;
        let g = |off: usize| f64::from_le_bytes(out[at + off..at + off + 8].try_into().unwrap());
        fields.insert(
            name.clone(),
            ArrayStats {
                min: g(0),
                max: g(8),
                sum: g(16),
                count: u64::from_le_bytes(out[at + 24..at + 32].try_into().unwrap()),
            },
        );
    }
    Ok(GlobalStats { bounds, fields })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vizkit::controller::DummyComm;
    use vizkit::data::{CellType, DataArray, ImageData};

    fn sphere_block(n: usize, offset: [f32; 3]) -> DataSet {
        let mut g = ImageData::new([n, n, n]);
        g.origin = offset;
        let c = (n - 1) as f32 / 2.0;
        let mut vals = Vec::with_capacity(n * n * n);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let d = vec3(i as f32 - c, j as f32 - c, k as f32 - c).length();
                    vals.push(c - d); // positive inside a sphere
                }
            }
        }
        g.point_data.set("v", DataArray::F32(vals));
        DataSet::Image(g)
    }

    fn voxel_block(value: f32) -> DataSet {
        let mut g = UnstructuredGrid::new();
        for k in 0..2u32 {
            for j in 0..2u32 {
                for i in 0..2u32 {
                    g.points.push([i as f32 * 4.0, j as f32 * 4.0, k as f32 * 4.0]);
                }
            }
        }
        g.add_cell(CellType::Voxel, &[0, 1, 2, 3, 4, 5, 6, 7]);
        g.cell_data.set("v02", DataArray::F32(vec![value]));
        DataSet::UGrid(g)
    }

    fn serial_ctrl() -> Controller {
        Controller::new(Arc::new(DummyComm))
    }

    fn surface_script() -> PipelineScript {
        PipelineScript {
            filters: vec![FilterSpec::Contour {
                field: "v".to_string(),
                isovalues: vec![1.0],
            }],
            render: crate::script::RenderSpec {
                mode: RenderMode::Surface,
                width: 48,
                height: 48,
                field: Some("v".to_string()),
                colormap: "viridis".to_string(),
                range: None,
                max_opacity: 0.7,
                resample_dims: [16, 16, 16],
                adaptive_resample: false,
                strategy: Default::default(),
                camera: None,
            },
            triggers: Vec::new(),
        }
    }

    #[test]
    fn serial_surface_pipeline_renders() {
        let pipe = CatalystPipeline::new(surface_script(), CatalystConfig::default());
        let img = pipe
            .execute(&[sphere_block(12, [0.0; 3])], &serial_ctrl())
            .unwrap()
            .unwrap();
        assert!(img.coverage() > 0.02, "coverage {}", img.coverage());
    }

    #[test]
    fn serial_volume_pipeline_renders() {
        let pipe = CatalystPipeline::new(
            PipelineScript::deep_water_impact(32, 32),
            CatalystConfig::default(),
        );
        let img = pipe
            .execute(&[voxel_block(5.0)], &serial_ctrl())
            .unwrap()
            .unwrap();
        assert!(img.coverage() > 0.01, "coverage {}", img.coverage());
    }

    #[test]
    fn empty_blocks_render_background() {
        let pipe = CatalystPipeline::new(surface_script(), CatalystConfig::default());
        let img = pipe.execute(&[], &serial_ctrl()).unwrap().unwrap();
        assert_eq!(img.coverage(), 0.0);
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let pipe = CatalystPipeline::new(surface_script(), CatalystConfig::default());
        // Contour expects ImageData; feed it an unstructured block.
        let err = pipe
            .execute(&[voxel_block(1.0)], &serial_ctrl())
            .unwrap_err();
        assert!(err.contains("cannot apply"), "{err}");
    }

    #[test]
    fn parallel_surface_matches_serial_union() {
        // Two ranks each hold half of the data; the composited image must
        // show geometry from both.
        let script = PipelineScript {
            filters: vec![FilterSpec::Contour {
                field: "v".to_string(),
                isovalues: vec![1.0],
            }],
            render: crate::script::RenderSpec {
                camera: Some(crate::script::CameraSpec {
                    position: [30.0, 24.0, 36.0],
                    focal_point: [8.0, 4.0, 4.0],
                    up: [0.0, 0.0, 1.0],
                    fovy_deg: 45.0,
                }),
                ..surface_script().render
            },
            triggers: Vec::new(),
        };
        let out = mona::testing::with_comm(2, mona::MonaConfig::default(), move |comm| {
            let vtk = crate::adapters::MonaVtkComm::new(comm);
            let rank = vizkit::VtkComm::rank(vtk.as_ref());
            let ctrl = Controller::new(vtk);
            let pipe = CatalystPipeline::new(script.clone(), CatalystConfig::default());
            let offset = [rank as f32 * 11.0, 0.0, 0.0];
            let img = pipe.execute(&[sphere_block(10, offset)], &ctrl).unwrap();
            img.map(|i| i.coverage())
        });
        let root_cov = out[0].unwrap();
        assert!(out[1].is_none());
        assert!(root_cov > 0.01, "root coverage {root_cov}");
    }

    #[test]
    fn first_execute_charges_init_cost() {
        let cluster = hpcsim::Cluster::default();
        let cov = cluster
            .spawn("cat", 0, || {
                let pipe = CatalystPipeline::new(surface_script(), CatalystConfig::default());
                let before = hpcsim::current().now();
                pipe.execute(&[sphere_block(8, [0.0; 3])], &serial_ctrl())
                    .unwrap();
                let first = hpcsim::current().now() - before;
                let before = hpcsim::current().now();
                pipe.execute(&[sphere_block(8, [0.0; 3])], &serial_ctrl())
                    .unwrap();
                let second = hpcsim::current().now() - before;
                (first, second)
            })
            .join();
        let (first, second) = cov;
        assert!(
            first > second + 2 * hpcsim::SEC,
            "init cost missing: {first} vs {second}"
        );
    }

    #[test]
    fn fused_stats_single_payload_roundtrip() {
        // Serial allreduce: globals equal the locals, bounds included.
        let mut local = BTreeMap::new();
        local.insert(
            "a".to_string(),
            ArrayStats {
                min: -1.0,
                max: 4.0,
                sum: 6.0,
                count: 3,
            },
        );
        local.insert("b".to_string(), ArrayStats::empty());
        let ctrl = serial_ctrl();
        let g = global_stats(
            &ctrl,
            Some((vec3(0.0, -1.0, 2.0), vec3(3.0, 4.0, 5.0))),
            &local,
        )
        .unwrap();
        assert_eq!(g.bounds, (vec3(0.0, -1.0, 2.0), vec3(3.0, 4.0, 5.0)));
        assert_eq!(g.fields["a"], local["a"]);
        assert!(g.fields["b"].is_empty());
        assert_eq!(g.field_range(Some("a")), (-1.0, 4.0));
        // Absent/empty fields fall back to the historic (0, 1).
        assert_eq!(g.field_range(Some("b")), (0.0, 1.0));
        assert_eq!(g.field_range(None), (0.0, 1.0));
        // All-empty bounds fall back to the unit box.
        let g = global_stats(&ctrl, None, &BTreeMap::new()).unwrap();
        assert_eq!(g.bounds, (vec3(0.0, 0.0, 0.0), vec3(1.0, 1.0, 1.0)));
    }

    #[test]
    fn triggered_skip_returns_outcome_without_init_cost() {
        let cluster = hpcsim::Cluster::default();
        let (skip_ns, first_run_ns) = cluster
            .spawn("cat", 0, || {
                let pipe = CatalystPipeline::new(
                    PipelineScript::deep_water_impact_triggered(24, 24),
                    CatalystConfig::default(),
                );
                // Iteration 0, quiescent data: jet threshold not met and
                // iter % 4 != 1 — the run gate defaults to skip.
                let before = hpcsim::current().now();
                let out = pipe
                    .execute_reactive(&[voxel_block(0.5)], &serial_ctrl(), 0)
                    .unwrap();
                assert!(out.skipped && out.image.is_none());
                assert!(!pipe.is_initialized(), "skip must not pay catalyst init");
                let skip_ns = hpcsim::current().now() - before;
                // Iteration 1 matches the keyframe cadence: runs, pays init.
                let before = hpcsim::current().now();
                let out = pipe
                    .execute_reactive(&[voxel_block(0.5)], &serial_ctrl(), 1)
                    .unwrap();
                assert!(!out.skipped && out.image.is_some());
                (skip_ns, hpcsim::current().now() - before)
            })
            .join();
        assert!(
            first_run_ns > skip_ns + 2 * hpcsim::SEC,
            "skip {skip_ns} vs run {first_run_ns}"
        );
    }

    #[test]
    fn triggered_run_fires_on_jet_velocity() {
        let pipe = CatalystPipeline::new(
            PipelineScript::deep_water_impact_triggered(24, 24),
            CatalystConfig::default(),
        );
        // Iteration 2 misses the cadence, but the jet velocity exceeds
        // the threshold, so the run gate and the range reparam both fire.
        let out = pipe
            .execute_reactive(&[voxel_block(5.0)], &serial_ctrl(), 2)
            .unwrap();
        assert!(!out.skipped && out.image.is_some());
    }

    #[test]
    fn contour_reparam_retargets_isovalue() {
        // The scripted isovalue (way above the data) extracts nothing;
        // the trigger retargets it to the live mean, which does.
        let mut script = surface_script();
        script.filters = vec![FilterSpec::Contour {
            field: "v".to_string(),
            isovalues: vec![1e9],
        }];
        script.triggers = vec![crate::trigger::TriggerSpec::new(
            "max(v) > 0",
            "contour(v, mean(v))",
        )];
        let pipe = CatalystPipeline::new(script, CatalystConfig::default());
        let out = pipe
            .execute_reactive(&[sphere_block(12, [0.0; 3])], &serial_ctrl(), 0)
            .unwrap();
        let cov = out.image.unwrap().coverage();
        assert!(cov > 0.02, "reparam contour coverage {cov}");
    }
}
