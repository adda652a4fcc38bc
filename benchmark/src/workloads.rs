//! The four workloads: what each stages, through which pipeline, and on
//! what schedule. Every input is derived from the run's seed; the system
//! under test only ever sees the generated blocks.
//!
//! A workload is a *cycle* of iterations that is replayed until the
//! measuring time is up. Every cycle stages exactly the same inputs, so
//! per-iteration means over whole cycles are stationary even though the
//! series inside a cycle are not (Gray–Scott patterns grow, the Deep
//! Water Impact mesh grows), and the image a cycle ends on must be
//! byte-identical every time — the output check.

use catalyst::trigger::TriggerSpec;
use catalyst::PipelineScript;
use colza::CodecSpec;
use minimpi::MpiComm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sims::dwi::DwiSeries;
use sims::gray_scott::{GrayScott, GrayScottParams};
use sims::mandelbulb::Mandelbulb;
use vizkit::{DataArray, DataSet, ImageData};

/// Number of simulated client ranks in every workload.
pub const CLIENT_RANKS: usize = 2;

/// Staging servers every workload starts (and ends every cycle) with.
pub const SERVERS: usize = 2;

/// The four workloads, by their stable names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Render-bound surface path: contour + clip + rasterizer, binary swap.
    GsSurface,
    /// Render-bound volume path: merge + resample + ray-caster, direct send.
    DwiVolume,
    /// Data-plane-bound: delta-coded, replicated megabyte blocks, rendering
    /// skipped on 15 of 16 iterations.
    GsStageDelta,
    /// Control-plane-bound: the staging area resizes every second iteration.
    ElasticChurn,
}

impl Workload {
    /// All workloads in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::GsSurface,
        Workload::DwiVolume,
        Workload::GsStageDelta,
        Workload::ElasticChurn,
    ];

    /// The stable identifier used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GsSurface => "gs_surface",
            Workload::DwiVolume => "dwi_volume",
            Workload::GsStageDelta => "gs_stage_delta",
            Workload::ElasticChurn => "elastic_churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything the harness needs to run one workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// The pipeline deployed on every server.
    pub script: PipelineScript,
    /// Codec staged blocks are encoded with.
    pub codec: CodecSpec,
    /// Copies per staged block.
    pub replication: usize,
    /// Iterations per cycle.
    pub cycle_len: u64,
    /// Cycle position whose blocks the warm-up iteration stages.
    pub warmup_pos: u64,
    /// Toy scale (`--smoke`): same code paths, tiny inputs.
    pub smoke: bool,
}

impl Plan {
    /// The plan of `workload` at full or toy scale.
    pub fn of(workload: Workload, smoke: bool) -> Plan {
        let px = |full: usize| if smoke { full / 4 } else { full };
        match workload {
            Workload::GsSurface => Plan {
                workload,
                script: PipelineScript::gray_scott(px(256), px(256)),
                codec: CodecSpec::Raw,
                replication: 1,
                cycle_len: if smoke { 2 } else { 5 },
                warmup_pos: 0,
                smoke,
            },
            Workload::DwiVolume => Plan {
                workload,
                script: PipelineScript::deep_water_impact(px(512), px(384)),
                codec: CodecSpec::Raw,
                replication: 1,
                cycle_len: if smoke { 2 } else { DWI_PICKS.len() as u64 },
                warmup_pos: 0,
                smoke,
            },
            Workload::GsStageDelta => {
                let mut script = PipelineScript::gray_scott(px(256), px(256));
                script.triggers = vec![TriggerSpec::new(
                    format!("iter % {STAGE_DELTA_CYCLE} == 0"),
                    "run",
                )];
                Plan {
                    workload,
                    script,
                    codec: CodecSpec::Delta,
                    replication: 2,
                    cycle_len: STAGE_DELTA_CYCLE,
                    // The cycle ends on snapshot 1, so the warm-up stages
                    // that one: the first measured iteration then diffs
                    // snapshot 0 against snapshot 1 like every later cycle.
                    warmup_pos: STAGE_DELTA_CYCLE - 1,
                    smoke,
                }
            }
            Workload::ElasticChurn => Plan {
                workload,
                script: PipelineScript::mandelbulb(64, 64),
                codec: CodecSpec::Raw,
                replication: 2,
                cycle_len: 8,
                warmup_pos: 0,
                smoke,
            },
        }
    }

    /// Whether the pipeline renders at cycle position `j` (the trigger's
    /// own rule, restated so the harness can check the outcome pattern).
    pub fn renders_at(&self, j: u64) -> bool {
        self.workload != Workload::GsStageDelta || j == 0
    }

    /// The staging-area size to reach *before* cycle position `j`:
    /// `elastic_churn` walks 2→3→4→3→2, one step every second iteration.
    pub fn resize_before(&self, j: u64) -> Option<usize> {
        if self.workload != Workload::ElasticChurn {
            return None;
        }
        match j {
            0 => Some(3),
            2 => Some(4),
            4 => Some(3),
            6 => Some(2),
            _ => None,
        }
    }

    /// Staging servers expected to serve cycle position `j`.
    pub fn servers_at(&self, j: u64) -> usize {
        (0..=j)
            .rev()
            .find_map(|p| self.resize_before(p))
            .unwrap_or(SERVERS)
    }
}

/// Cycle length of `gs_stage_delta`: nine snapshots replayed ping-pong
/// (0, 1, …, 8, 7, …, 1) so consecutive iterations always differ by one
/// snapshot step and the trigger `iter % 16 == 0` fires once per cycle.
const STAGE_DELTA_CYCLE: u64 = 16;
const STAGE_DELTA_SNAPSHOTS: usize = 9;

/// The Deep Water Impact iterations a cycle replays (of the paper's
/// 1..=30): every third one keeps the growth curve of Fig. 1a/7 while a
/// cycle stays short enough for several to fit in a run.
const DWI_PICKS: [u64; 10] = [3, 6, 9, 12, 15, 18, 21, 24, 27, 30];

/// A deterministic uniform draw in `[0, 1)` for `(seed, stream)`.
pub fn unit(seed: u64, stream: u64) -> f64 {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).random::<f64>()
}

/// Gray–Scott parameters for a seed: the tutorial's pattern-forming regime
/// with feed/kill rates and noise amplitude perturbed by a few tenths of a
/// percent. Every seed yields different field values (and so different
/// frames, deltas and pixels), but the same amount of work: the metrics'
/// spread across seeds should measure the machine, not the inputs.
///
/// The noise amplitude is half the tutorial's 0.1. At 0.1 the background
/// noise sits right under the pipeline's lowest isovalue (also 0.1), and
/// whether a cell crosses it — hence the triangle count, hence the render
/// time — swings by ±20 % with the last digits of the parameters.
pub fn gray_scott_params(seed: u64) -> GrayScottParams {
    let base = GrayScottParams::default();
    GrayScottParams {
        f: base.f * (1.0 + 0.004 * (unit(seed, 1) - 0.5)),
        k: base.k * (1.0 + 0.004 * (unit(seed, 2) - 0.5)),
        noise: base.noise * (0.49 + 0.02 * unit(seed, 3)),
        ..base
    }
}

/// The Mandelbulb generator for a seed (fractal power within ±0.01 of 8).
pub fn mandelbulb(seed: u64, dims: [usize; 3]) -> Mandelbulb {
    Mandelbulb {
        dims,
        power: 8.0 + 0.02 * (unit(seed, 4) as f32 - 0.5),
        ..Default::default()
    }
}

/// The Deep Water Impact series at benchmark scale.
pub fn dwi_series(smoke: bool) -> DwiSeries {
    DwiSeries {
        total_blocks: 32,
        // Cell counts of the paper's series times this factor: about 1 k
        // cells at iteration 3 growing to about 32 k at iteration 30.
        scale: if smoke { 1.0 / 32768.0 } else { 1.0 / 4096.0 },
        iterations: 30,
    }
}

/// One Deep Water Impact block with its velocity field scaled by a
/// seed-dependent factor within ±2 % (geometry, and so work, unchanged).
pub fn dwi_block(series: &DwiSeries, seed: u64, iteration: u64, block: usize) -> DataSet {
    let mut grid = series.generate_block(iteration, block);
    let gain = 1.0 + 0.04 * (unit(seed, 5) as f32 - 0.5);
    if let Some(DataArray::F32(v)) = grid.cell_data.get("v02").cloned() {
        grid.cell_data.set(
            "v02",
            DataArray::F32(v.into_iter().map(|x| x * gain).collect()),
        );
    }
    DataSet::UGrid(grid)
}

/// Splits a regular grid into `parts` z-slabs that share one boundary
/// plane with their upper neighbour, so contours stay seamless.
pub fn split_z(img: &ImageData, parts: usize) -> Vec<ImageData> {
    let [nx, ny, nz] = img.dims;
    assert!(
        parts >= 1 && nz % parts == 0,
        "z extent must divide across blocks"
    );
    let plane = nx * ny;
    (0..parts)
        .map(|p| {
            let z0 = p * nz / parts;
            let z1 = ((p + 1) * nz / parts + 1).min(nz);
            let mut out = ImageData::new([nx, ny, z1 - z0]);
            out.spacing = img.spacing;
            out.origin = [
                img.origin[0],
                img.origin[1],
                img.origin[2] + z0 as f32 * img.spacing[2],
            ];
            for (name, array) in img.point_data.iter() {
                let DataArray::F32(v) = array else {
                    panic!("split_z only handles f32 point fields");
                };
                out.point_data.set(
                    name.clone(),
                    DataArray::F32(v[z0 * plane..z1 * plane].to_vec()),
                );
            }
            out
        })
        .collect()
}

/// One rank's inputs: frames generated in set-up — so that the solvers
/// never pollute the measured iterations; their cost is the `sims.*` driver
/// metrics — and replayed in a fixed order every cycle.
pub struct Source {
    frames: Vec<Vec<(u64, DataSet)>>,
    /// Frame index for each cycle position.
    order: Vec<usize>,
}

impl Source {
    /// This rank's `(block id, dataset)` pairs for cycle position `j`.
    pub fn blocks(&self, j: u64) -> &[(u64, DataSet)] {
        &self.frames[self.order[j as usize]]
    }
}

/// `frames` snapshots of this rank's Gray–Scott slab, `steps` solver steps
/// (with halo exchange over the simulation's own communicator) apart, each
/// split into `parts` blocks.
fn gray_scott_frames(
    sim: &mut GrayScott,
    comm: &MpiComm,
    frames: usize,
    steps: usize,
    parts: usize,
) -> Vec<Vec<(u64, DataSet)>> {
    (0..frames)
        .map(|_| {
            sim.run(steps, Some(comm))
                .expect("gray-scott halo exchange");
            let DataSet::Image(slab) = sim.to_dataset() else {
                unreachable!("gray-scott exports a regular grid");
            };
            split_z(&slab, parts)
                .into_iter()
                .enumerate()
                .map(|(b, img)| ((comm.rank() * parts + b) as u64, DataSet::Image(img)))
                .collect()
        })
        .collect()
}

/// Builds the calling rank's inputs for a plan. Runs inside the rank's
/// simulated process during set-up (the Gray–Scott solver steps across
/// both ranks).
pub fn make_source(plan: &Plan, seed: u64, comm: &MpiComm) -> Source {
    let (rank, ranks) = (comm.rank(), comm.size());
    match plan.workload {
        Workload::GsSurface => {
            // One block per rank and iteration, 10 solver steps apart: the
            // pattern (and the triangle count) grows along the cycle.
            let n = if plan.smoke { 16 } else { 48 };
            let steps = if plan.smoke { 2 } else { 10 };
            let mut sim = GrayScott::new(n, rank, ranks, gray_scott_params(seed));
            Source {
                frames: gray_scott_frames(&mut sim, comm, plan.cycle_len as usize, steps, 1),
                order: (0..plan.cycle_len as usize).collect(),
            }
        }
        Workload::GsStageDelta => {
            let n = if plan.smoke { 16 } else { 128 };
            let per_rank = if plan.smoke { 2 } else { 8 };
            let mut sim = GrayScott::new(n, rank, ranks, gray_scott_params(seed));
            sim.run(if plan.smoke { 2 } else { 6 }, Some(comm))
                .expect("gray-scott halo exchange");
            let top = STAGE_DELTA_SNAPSHOTS - 1;
            Source {
                frames: gray_scott_frames(&mut sim, comm, STAGE_DELTA_SNAPSHOTS, 2, per_rank),
                order: (0..STAGE_DELTA_CYCLE as usize)
                    .map(|j| if j <= top { j } else { 2 * top - j })
                    .collect(),
            }
        }
        Workload::DwiVolume => {
            let series = dwi_series(plan.smoke);
            let per_rank = series.total_blocks / ranks;
            let frames = DWI_PICKS[..plan.cycle_len as usize]
                .iter()
                .map(|&it| {
                    (rank * per_rank..(rank + 1) * per_rank)
                        .map(|b| (b as u64, dwi_block(&series, seed, it, b)))
                        .collect()
                })
                .collect();
            Source {
                frames,
                order: (0..plan.cycle_len as usize).collect(),
            }
        }
        Workload::ElasticChurn => {
            // 8 blocks of 32 x 32 x 5 f32 = 20 KiB each, 4 per rank.
            let n = if plan.smoke { 16 } else { 32 };
            let bulb = mandelbulb(seed, [n, n, n]);
            let total = 8;
            let per_rank = total / ranks;
            let frame = (rank * per_rank..(rank + 1) * per_rank)
                .map(|b| (b as u64, bulb.generate_block(b, total)))
                .collect();
            Source {
                frames: vec![frame],
                order: vec![0; plan.cycle_len as usize],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn elastic_schedule_walks_2_3_4_3_2() {
        let plan = Plan::of(Workload::ElasticChurn, false);
        let sizes: Vec<usize> = (0..plan.cycle_len).map(|j| plan.servers_at(j)).collect();
        assert_eq!(sizes, vec![3, 3, 4, 4, 3, 3, 2, 2]);
        assert_eq!(
            *sizes.last().unwrap(),
            SERVERS,
            "a cycle ends where it began"
        );
    }

    #[test]
    fn split_z_shares_boundary_planes() {
        let mut img = ImageData::new([2, 2, 4]);
        img.point_data
            .set("v", DataArray::F32((0..16).map(|i| i as f32).collect()));
        let parts = split_z(&img, 2);
        assert_eq!(parts[0].dims, [2, 2, 3]);
        assert_eq!(parts[1].dims, [2, 2, 2]);
        assert_eq!(parts[1].origin[2], 2.0);
        let DataArray::F32(lo) = parts[0].point_data.get("v").unwrap() else {
            panic!()
        };
        assert_eq!(lo.len(), 12);
        assert_eq!(lo[8], 8.0, "plane 2 is shared");
    }

    #[test]
    fn seeds_change_inputs_only_slightly() {
        let a = gray_scott_params(1);
        let b = gray_scott_params(2);
        assert_ne!(a.f, b.f);
        assert!((a.f / b.f - 1.0).abs() < 0.005);
        assert_eq!(unit(7, 1), unit(7, 1));
    }
}
