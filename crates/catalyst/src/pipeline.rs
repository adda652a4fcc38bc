//! Pipeline execution.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use vizkit::data::{ArrayStats, DataSet, ImageData, PolyData, UnstructuredGrid};
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
        self.execute_checked(blocks, self.first_failing_stage(blocks), ctrl, iteration)
    }

    /// The collective side of [`Self::execute_reactive`] on a rank whose
    /// staged blocks do not parse as datasets: it joins the same
    /// collectives with no blocks and the unreadable-block code, so every
    /// rank fails this `execute` with one error instead of the others
    /// waiting for this rank in the stats allreduce.
    pub fn execute_unreadable(&self, ctrl: &Controller) -> Result<PipelineOutcome, String> {
        self.execute_checked(&[], UNREADABLE_BLOCK, ctrl, 0)
    }

    /// The one execute path. `failing` is this rank's pre-collective
    /// stage code; the first stats agreement turns any rank's code into
    /// every rank's error.
    fn execute_checked(
        &self,
        blocks: &[DataSet],
        failing: u64,
        ctrl: &Controller,
        iteration: u64,
    ) -> Result<PipelineOutcome, String> {
        let spec = &self.script.render;
        let mut plan = RenderPlan::default();
        let mut agreed = None;

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
            let stats = global_stats(ctrl, local_blocks_bounds(blocks), &local, failing)?;
            self.fail_at_stage(stats.failing_stage)?;
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
                    Reparam::CameraZoom(z) => plan.zoom = Some(z),
                }
            }
            agreed = Some(stats);
        }

        let ctx = hpcsim::process::try_current();
        // Catalyst initialization is paid on the first iteration that
        // actually runs — skipped iterations never load the libraries.
        if !self.initialized.swap(true, Ordering::AcqRel) {
            if let Some(ctx) = &ctx {
                ctx.advance(self.config.init_cost_ns);
            }
        }

        let produce = || -> Result<(Image, f32), String> {
            // This rank's share, computed only where every stage can run:
            // a failing code fails every rank at the agreement below.
            let runs = failing == NO_FAILING_STAGE;
            let (bounds, share) = match spec.mode {
                RenderMode::Surface => {
                    // The check walk passed every block, so the run walk,
                    // making the same decisions, yields every surface.
                    let mut merged = PolyData::new();
                    let surfaces = blocks.iter().filter(|_| runs);
                    for poly in surfaces.filter_map(|b| self.walk(b, Some(&plan)).ok()) {
                        if merged.points.is_empty() {
                            merged = poly.into_owned();
                        } else {
                            merged.append(&poly);
                        }
                    }
                    (merged.bounds(), Share::Surface(merged))
                }
                RenderMode::Volume => {
                    let field = spec
                        .field
                        .as_deref()
                        .ok_or("volume rendering needs a field")?;
                    let ugrids: Vec<&UnstructuredGrid> =
                        blocks.iter().filter_map(|b| b.as_ugrid()).collect();
                    let grid = filters::merge_blocks(&ugrids);
                    let dims = if spec.adaptive_resample {
                        // Grid resolution tracks the local mesh size, so
                        // rendering cost grows with the data (real
                        // unstructured volume rendering behaves this way).
                        let n = ((grid.num_cells() as f64).cbrt() * 1.6).clamp(16.0, 96.0) as usize;
                        [n, n, n]
                    } else {
                        spec.resample_dims
                    };
                    // A server that holds no block has no cell field to
                    // resample: it contributes a transparent frame.
                    let volume = (grid.num_cells() > 0 && runs)
                        .then(|| filters::resample_to_image(&grid, field, dims, f32::NEG_INFINITY));
                    let bounds = grid.bounds();
                    let share = Share::Volume {
                        grid,
                        field,
                        dims,
                        volume,
                    };
                    (bounds, share)
                }
            };

            // The one stats agreement on camera framing and color range,
            // unless the trigger evaluation already ran it.
            let stats = match agreed {
                Some(stats) => stats,
                None => {
                    let mut local = BTreeMap::new();
                    if let (None, Some(f)) = (spec.range, spec.field.as_deref()) {
                        let array = match &share {
                            Share::Surface(merged) => merged.point_data.get(f),
                            Share::Volume { grid, .. } => grid.cell_data.get(f),
                        };
                        let field_stats = array.map_or_else(ArrayStats::empty, |a| a.stats());
                        local.insert(f.to_string(), field_stats);
                    }
                    let stats = global_stats(ctrl, bounds, &local, failing)?;
                    self.fail_at_stage(stats.failing_stage)?;
                    stats
                }
            };

            let camera = self.camera(stats.bounds, plan.zoom);
            let range = plan
                .range
                .or(spec.range)
                .unwrap_or_else(|| stats.field_range(spec.field.as_deref()));
            let colors = ColorMap::by_name(&spec.colormap, range);
            let (w, h) = (spec.width, spec.height);
            let image = match &share {
                Share::Surface(merged) => {
                    render_surface(merged, &camera, &colors, spec.field.as_deref(), w, h)
                }
                Share::Volume { volume: None, .. } => Image::new(w, h),
                Share::Volume {
                    field,
                    dims,
                    volume: Some(volume),
                    ..
                } => {
                    let top = spec.max_opacity;
                    let opacity = vec![(0.0, 0.0), (0.35, top * 0.3), (1.0, top)];
                    let tf = TransferFunction::with_opacity(colors, opacity);
                    let (lo, hi) = stats.bounds;
                    let step = ((hi - lo).length() / dims[0].max(16) as f32).max(1e-3);
                    render_volume(volume, field, &camera, &tf, w, h, step)
                }
            };
            // Only volume blending reads the depth, to order the ranks.
            let center = bounds.map_or(camera.focal_point, |(lo, hi)| (lo + hi) * 0.5);
            Ok((image, camera.view_depth(center)))
        };
        let (image, view_depth) = match &ctx {
            Some(ctx) => ctx.charge_compute(produce),
            None => produce(),
        }?;

        // Composite across the staging area through the converted
        // communicator (the vtkIceTContext path).
        let icet_comm = icet_context::icet_comm_for(ctrl.comm())?;
        let (op, strategy, order) = match spec.mode {
            RenderMode::Surface => (icet::CompositeOp::Closest, spec.strategy.to_icet(), None),
            RenderMode::Volume => {
                // Visibility order: ranks sorted by view depth, resolved
                // at the root from gathered local depths.
                let depth_bytes = view_depth.to_le_bytes();
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
            image,
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

    /// The one walk over the script's filter chain for one block: a
    /// single match over (filter, current data kind) decides whether each
    /// stage can run and what it yields. A stage cannot run when the data
    /// lacks the field it names (the vizkit filters panic on that, and a
    /// panic would take the server's handler thread down) or when it gets
    /// the wrong data kind, including a chain that ends in no surface.
    /// With a `plan` the walk runs the filters on the borrowed block;
    /// without one it only checks them, handing each stage's input on as
    /// a stand-in of the kind it yields (thresholding keeps every cell
    /// array, and no stage after a contour reads a field). Returns the
    /// surface, or the failing stage's [`stage_failure`] code.
    fn walk<'a>(
        &self,
        block: &'a DataSet,
        plan: Option<&RenderPlan>,
    ) -> Result<Cow<'a, PolyData>, u64> {
        let mut cur = match block {
            DataSet::Image(img) => Working::Image(img),
            DataSet::UGrid(g) => Working::Grid(Cow::Borrowed(g)),
            DataSet::Poly(p) => Working::Surface(Cow::Borrowed(p)),
        };
        for (i, f) in self.script.filters.iter().enumerate() {
            cur = match (f, cur) {
                (FilterSpec::Contour { field, isovalues }, Working::Image(img)) => {
                    if img.point_data.get(field).is_none() {
                        return Err(stage_failure(i, false));
                    }
                    // A fired trigger may re-parameterize the isovalues.
                    let values = plan.map(|p| p.contours.get(field).unwrap_or(isovalues));
                    let surface = values.map(|v| filters::contour(img, field, v));
                    Working::Surface(Cow::Owned(surface.unwrap_or_default()))
                }
                (FilterSpec::Clip { origin, normal }, Working::Surface(p)) => {
                    let (o, n) = (Vec3::from_array(*origin), Vec3::from_array(*normal));
                    let plane = filters::Plane::through(o, n);
                    Working::Surface(match plan {
                        Some(_) => Cow::Owned(filters::clip(&p, plane)),
                        None => p,
                    })
                }
                (FilterSpec::Threshold { field, min, max }, Working::Grid(g)) => {
                    if g.cell_data.get(field).is_none() {
                        return Err(stage_failure(i, false));
                    }
                    Working::Grid(match plan {
                        Some(_) => Cow::Owned(filters::threshold_cells(&g, field, *min, *max)),
                        None => g,
                    })
                }
                _ => return Err(stage_failure(i, true)),
            };
        }
        match cur {
            Working::Surface(p) => Ok(p),
            _ => Err(stage_failure(self.script.filters.len(), true)),
        }
    }

    /// The first script stage that cannot run on this rank's blocks, as
    /// a [`stage_failure`] code: filter `i` is stage `i`, the render is
    /// stage `filters.len()`. Known before the first collective, so every
    /// rank can agree on it there.
    fn first_failing_stage(&self, blocks: &[DataSet]) -> u64 {
        let first = match (self.script.render.mode, self.script.render.field.as_deref()) {
            (RenderMode::Volume, Some(field)) => {
                // Resampling reads the merged grid, which keeps only the
                // cell arrays every block has.
                let ugrids = || blocks.iter().filter_map(|b| b.as_ugrid());
                let cells: usize = ugrids().map(|g| g.num_cells()).sum();
                (cells > 0 && ugrids().any(|g| g.cell_data.get(field).is_none()))
                    .then(|| stage_failure(self.script.filters.len(), false))
            }
            (RenderMode::Volume, None) => None,
            (RenderMode::Surface, _) => {
                blocks.iter().filter_map(|b| self.walk(b, None).err()).min()
            }
        };
        first.unwrap_or(NO_FAILING_STAGE)
    }

    /// Every rank's error for the stage the stats allreduce agreed cannot
    /// run (the least code any rank reported), so each server fails the
    /// same `execute` with the same message.
    fn fail_at_stage(&self, code: u64) -> Result<(), String> {
        let filter = match code {
            NO_FAILING_STAGE => return Ok(()),
            UNREADABLE_BLOCK => {
                return Err("unreadable staged block: a server's data does not parse".to_string())
            }
            _ => self.script.filters.get((code >> 1) as usize - 1),
        };
        if code & 1 == 1 {
            return Err(match filter {
                Some(f) => format!("filter {f:?} cannot apply to the current data type"),
                None => "pipeline must end in surface geometry for surface rendering".to_string(),
            });
        }
        let render_field = self.script.render.field.as_deref().unwrap_or("");
        let (stage, kind, field) = match filter {
            Some(FilterSpec::Contour { field, .. }) => ("contour", "point", field.as_str()),
            Some(FilterSpec::Threshold { field, .. }) => ("threshold", "cell", field.as_str()),
            _ => ("volume render", "cell", render_field),
        };
        Err(format!(
            "{stage}: the staged data has no {kind} field {field:?}"
        ))
    }

    fn camera(&self, bounds: (Vec3, Vec3), zoom: Option<f64>) -> Camera {
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
        if let Some(zoom) = zoom.filter(|z| z.is_finite() && *z > 0.0 && *z != 1.0) {
            let dir = cam.position - cam.focal_point;
            cam.position = cam.focal_point + dir * (1.0 / zoom as f32);
        }
        cam
    }
}

/// [`CatalystPipeline::first_failing_stage`] when every stage can run.
const NO_FAILING_STAGE: u64 = u64::MAX;

/// The code of a rank whose staged blocks do not parse: below every stage
/// code, since no stage can run on data that was never read.
const UNREADABLE_BLOCK: u64 = 0;

/// The code of a failing script stage: the stage index (offset past the
/// unreadable-block code), then whether it got the wrong data type rather
/// than missing a field. Folding codes by `min` picks the earliest stage,
/// and one reason for it on every rank.
fn stage_failure(stage: usize, wrong_type: bool) -> u64 {
    (stage as u64 + 1) << 1 | wrong_type as u64
}

/// Per-execution render adjustments from fired triggers.
#[derive(Debug, Default)]
struct RenderPlan {
    /// Contour isovalue overrides by filter field.
    contours: BTreeMap<String, Vec<f64>>,
    /// Color-range override.
    range: Option<(f32, f32)>,
    /// Camera zoom factor (`None` = as scripted).
    zoom: Option<f64>,
}

/// The data kind between two filter stages of [`CatalystPipeline::walk`].
enum Working<'a> {
    Image(&'a ImageData),
    Grid(Cow<'a, UnstructuredGrid>),
    Surface(Cow<'a, PolyData>),
}

/// This rank's share of the picture before the stats agreement: the
/// merged surface, or the merged grid and its resampled volume.
enum Share<'a> {
    Surface(PolyData),
    Volume {
        grid: UnstructuredGrid,
        field: &'a str,
        dims: [usize; 3],
        volume: Option<ImageData>,
    },
}

/// Fused global reduction result: spatial bounds plus per-field summary
/// statistics, all carried by one allreduce.
struct GlobalStats {
    /// Global axis-aligned bounds (a unit box when every rank is empty,
    /// so cameras stay finite).
    bounds: (Vec3, Vec3),
    /// Global per-field statistics, keyed by field name.
    fields: BTreeMap<String, ArrayStats>,
    /// The least [`CatalystPipeline::first_failing_stage`] of any rank.
    failing_stage: u64,
}

impl GlobalStats {
    /// The color range for `field`: its global `(min, max)` as `f32`, or
    /// `(0, 1)` when the field is absent/empty everywhere (the historic
    /// `global_range` fallback).
    fn field_range(&self, field: Option<&str>) -> (f32, f32) {
        field
            .and_then(|f| self.fields.get(f))
            .filter(|s| !s.is_empty())
            .map(|s| (s.min as f32, s.max as f32))
            .unwrap_or((0.0, 1.0))
    }
}

/// Combined bounds of this rank's staged blocks.
fn local_blocks_bounds(blocks: &[DataSet]) -> Option<(Vec3, Vec3)> {
    let bounds = blocks.iter().filter_map(|b| match b {
        DataSet::Image(i) => Some(i.bounds()),
        DataSet::UGrid(g) => g.bounds(),
        DataSet::Poly(p) => p.bounds(),
    });
    bounds.reduce(|(alo, ahi), (lo, hi)| {
        (
            vec3(alo.x.min(lo.x), alo.y.min(lo.y), alo.z.min(lo.z)),
            vec3(ahi.x.max(hi.x), ahi.y.max(hi.y), ahi.z.max(hi.z)),
        )
    })
}

/// The fused statistics collective: ONE allreduce carrying the spatial
/// bounds (6 × f32) plus, for every agreed field, the `ArrayStats`
/// monoid (min/max/sum as f64, count as u64 — 32 bytes each). All ranks
/// must pass the same field set, which callers derive from the script
/// alone, never from the data. `min`, `max`, `range` and `mean` of every
/// field all fall out of this single collective, and so does the least
/// `failing_stage` code (8 bytes at the end).
fn global_stats(
    ctrl: &Controller,
    local_bounds: Option<(Vec3, Vec3)>,
    local_fields: &BTreeMap<String, ArrayStats>,
    failing_stage: u64,
) -> Result<GlobalStats, String> {
    hpcsim::trace::counter_add("colza.trigger.stats.collectives", 1);
    let (lo, hi) = local_bounds.unwrap_or((
        vec3(f32::INFINITY, f32::INFINITY, f32::INFINITY),
        vec3(f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY),
    ));
    let mut payload = Vec::with_capacity(24 + 32 * local_fields.len() + 8);
    for v in [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    for s in local_fields.values() {
        payload.extend_from_slice(&s.min.to_le_bytes());
        payload.extend_from_slice(&s.max.to_le_bytes());
        payload.extend_from_slice(&s.sum.to_le_bytes());
        payload.extend_from_slice(&s.count.to_le_bytes());
    }
    payload.extend_from_slice(&failing_stage.to_le_bytes());
    let nfields = local_fields.len();
    let tail = 24 + 32 * nfields;
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
        let word = |buf: &[u8]| u64::from_le_bytes(buf[tail..tail + 8].try_into().unwrap());
        let least = word(acc).min(word(other));
        acc[tail..tail + 8].copy_from_slice(&least.to_le_bytes());
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
    let failing_stage = u64::from_le_bytes(out[tail..tail + 8].try_into().unwrap());
    Ok(GlobalStats {
        bounds,
        fields,
        failing_stage,
    })
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

    /// A one-voxel grid carrying the cell field `v`, and a one-triangle
    /// surface carrying the point field `v`.
    fn ugrid_and_poly_blocks() -> (DataSet, DataSet) {
        let DataSet::UGrid(mut grid) = voxel_block(5.0) else {
            unreachable!()
        };
        grid.cell_data.set("v", DataArray::F32(vec![5.0]));
        let mut poly = PolyData::new();
        poly.points = vec![[0.0; 3], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0]];
        poly.triangles = vec![[0, 1, 2]];
        poly.point_data
            .set("v", DataArray::F32(vec![0.0, 1.0, 2.0]));
        (DataSet::UGrid(grid), DataSet::Poly(poly))
    }

    /// Every script stage on every block kind, with its field present and
    /// absent: each case either renders serially or fails with exactly
    /// the message its pre-collective stage code names — never a vizkit
    /// `panic!`.
    #[test]
    fn every_stage_renders_or_fails_with_its_agreed_message() {
        let ctrl = serial_ctrl();
        let contour = |field: &str| FilterSpec::Contour {
            field: field.to_string(),
            isovalues: vec![1.0],
        };
        let clip = FilterSpec::Clip {
            origin: [2.0, 0.0, 0.0],
            normal: [1.0, 0.0, 0.0],
        };
        let threshold = |field: &str| FilterSpec::Threshold {
            field: field.to_string(),
            min: 0.0,
            max: 10.0,
        };
        let (ugrid, poly) = ugrid_and_poly_blocks();
        let blocks = [
            ("image", sphere_block(8, [0.0; 3])),
            ("ugrid", ugrid),
            ("poly", poly),
        ];
        let (wrong_type, missing) = (Some(stage_failure(0, true)), Some(stage_failure(0, false)));
        let mut cases = Vec::new();
        for field in ["v", "nope"] {
            let present = field == "v";
            for (kind, block) in &blocks {
                let image = *kind == "image";
                let contour_code = match (image, present) {
                    (true, true) => None,
                    (true, false) => missing,
                    _ => wrong_type,
                };
                let threshold_code = match (*kind, present) {
                    ("ugrid", true) => Some(stage_failure(1, true)),
                    ("ugrid", false) => missing,
                    _ => wrong_type,
                };
                // The surface render's color field is the filter's field.
                for (filters, code) in [
                    (vec![contour(field)], contour_code),
                    (vec![clip.clone()], wrong_type.filter(|_| *kind != "poly")),
                    (vec![threshold(field)], threshold_code),
                ] {
                    let mut script = surface_script();
                    script.filters = filters;
                    script.render.field = Some(field.to_string());
                    cases.push((
                        format!("{:?} x {kind}", script.filters),
                        script,
                        block.clone(),
                        code,
                    ));
                }
            }
        }
        // A chain that ends in no surface fails at the render stage.
        let mut bare = surface_script();
        bare.filters.clear();
        cases.push(("bare chain".into(), bare, blocks[0].1.clone(), wrong_type));
        let mut chain = surface_script();
        chain.filters.push(clip.clone());
        cases.push((
            "contour, clip".into(),
            chain.clone(),
            blocks[0].1.clone(),
            None,
        ));
        chain.filters.push(threshold("v"));
        cases.push((
            "contour, clip, threshold".into(),
            chain,
            blocks[0].1.clone(),
            Some(stage_failure(2, true)),
        ));
        // Volume mode reads the render field of the merged grid.
        let volume = PipelineScript::deep_water_impact(16, 16);
        let volume_missing = Some(stage_failure(volume.filters.len(), false));
        cases.push(("volume".into(), volume.clone(), voxel_block(5.0), None));
        let mut nope = volume;
        nope.render.field = Some("nope".to_string());
        cases.push((
            "volume, no field".into(),
            nope.clone(),
            voxel_block(5.0),
            volume_missing,
        ));
        // Triggered: the check rides the trigger's stats allreduce.
        nope.triggers = PipelineScript::deep_water_impact_triggered(16, 16).triggers;
        cases.push((
            "triggered volume, no field".into(),
            nope,
            voxel_block(5.0),
            volume_missing,
        ));

        for (name, script, block, code) in cases {
            let pipe = CatalystPipeline::new(script, CatalystConfig::default());
            let blocks = std::slice::from_ref(&block);
            assert_eq!(
                pipe.first_failing_stage(blocks),
                code.unwrap_or(NO_FAILING_STAGE),
                "{name}"
            );
            // A rank without blocks finds nothing missing locally.
            assert_eq!(pipe.first_failing_stage(&[]), NO_FAILING_STAGE, "{name}");
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pipe.execute_reactive(blocks, &ctrl, 2)
            }))
            .unwrap_or_else(|_| panic!("{name}: reached a vizkit panic"));
            match code {
                None => assert!(out.unwrap().image.is_some(), "{name}"),
                Some(code) => {
                    let err = out.unwrap_err();
                    assert_eq!(err, pipe.fail_at_stage(code).unwrap_err(), "{name}");
                    let named = if code & 1 == 0 {
                        "\"nope\""
                    } else if code == stage_failure(pipe.script().filters.len(), true) {
                        "must end in surface"
                    } else {
                        "cannot apply"
                    };
                    assert!(err.contains(named), "{name}: {err}");
                }
            }
        }
        let pipe = CatalystPipeline::new(
            PipelineScript {
                filters: vec![contour("nope")],
                ..surface_script()
            },
            CatalystConfig::default(),
        );
        let err = pipe.execute(&[blocks[0].1.clone()], &ctrl).unwrap_err();
        assert_eq!(err, "contour: the staged data has no point field \"nope\"");
        let mut volume = PipelineScript::deep_water_impact(16, 16);
        volume.render.field = Some("nope".to_string());
        let pipe = CatalystPipeline::new(volume, CatalystConfig::default());
        let err = pipe.execute(&[voxel_block(5.0)], &ctrl).unwrap_err();
        assert_eq!(
            err,
            "volume render: the staged data has no cell field \"nope\""
        );
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
            NO_FAILING_STAGE,
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
        let g = global_stats(&ctrl, None, &BTreeMap::new(), 3).unwrap();
        assert_eq!(g.bounds, (vec3(0.0, 0.0, 0.0), vec3(1.0, 1.0, 1.0)));
        assert_eq!(g.failing_stage, 3);
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
