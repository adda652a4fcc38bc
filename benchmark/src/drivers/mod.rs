//! Per-layer drivers: timed calls into each crate's public functions, on
//! inputs built by the workloads' generators for the run's seed. A layer
//! is a crate; every driver call is one of the benchmark's own spans.

mod comm;
mod compute;

use std::path::PathBuf;
use std::sync::Arc;

use crate::harness::{self, Ops, Segment};
use crate::report::{resize_layers, Values};
use crate::spans::Recorder;
use crate::workloads::{Plan, Workload};

/// What every driver gets.
#[derive(Clone)]
pub struct Ctx {
    /// The run's seed: inputs and virtual clusters derive from it.
    pub seed: u64,
    /// Toy scale.
    pub smoke: bool,
    /// Repetitions whose median a driver reports (30 at full scale).
    pub reps: usize,
    /// Where drivers that need a connection file put it.
    pub out_dir: PathBuf,
}

/// Input sizes the render-path drivers share: the workloads' own at full
/// scale.
pub struct Sizes {
    /// Gray–Scott grid edge.
    pub field_n: usize,
    /// Solver steps before the field is taken (the end of a `gs_surface` cycle).
    pub field_steps: usize,
    /// Surface image `(width, height)`.
    pub surface_px: (usize, usize),
    /// Volume image `(width, height)`.
    pub volume_px: (usize, usize),
}

impl Ctx {
    /// The sizes for this run's scale.
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes {
                field_n: 16,
                field_steps: 4,
                surface_px: (64, 64),
                volume_px: (128, 96),
            }
        } else {
            Sizes {
                field_n: 48,
                field_steps: 50,
                surface_px: (256, 256),
                volume_px: (512, 384),
            }
        }
    }

    /// The Gray–Scott field the surface drivers work on, solved on one rank.
    pub fn gray_scott_field(&self) -> vizkit::ImageData {
        let sizes = self.sizes();
        let mut sim = sims::gray_scott::GrayScott::serial(
            sizes.field_n,
            crate::workloads::gray_scott_params(self.seed),
        );
        sim.run(sizes.field_steps, None).expect("serial gray-scott");
        let vizkit::DataSet::Image(field) = sim.to_dataset() else {
            unreachable!("gray-scott exports a regular grid");
        };
        field
    }
}

/// The isovalues and clip plane of `PipelineScript::gray_scott`.
pub const SURFACE_ISOVALUES: [f64; 3] = [0.1, 0.3, 0.5];

/// See [`SURFACE_ISOVALUES`].
pub fn surface_clip_plane() -> vizkit::filters::Plane {
    use vizkit::math::Vec3;
    vizkit::filters::Plane::through(
        Vec3::from_array([0.0; 3]),
        Vec3::from_array([1.0, 0.4, 0.2]),
    )
}

type Driver = fn(&Ctx) -> Values;

/// Drivers that only compute, with the crate each one measures. They run
/// inside one simulated process (some layers charge the caller's clock).
const COMPUTE: [(&str, &str, Driver); 9] = [
    ("driver.sims", "sims", compute::sims),
    ("driver.wire", "wire", compute::wire),
    ("driver.codec", "core", compute::codec),
    ("driver.qos", "core", compute::qos),
    ("driver.store", "store", compute::store),
    ("driver.vizkit", "vizkit", compute::vizkit),
    ("driver.catalyst", "catalyst", compute::catalyst),
    ("driver.argo", "argo", compute::argo),
    ("driver.charge_compute", "hpcsim", compute::charge_compute),
];

/// Drivers that boot their own virtual clusters.
const COMM: [(&str, &str, Driver); 5] = [
    ("driver.na", "na", comm::na),
    ("driver.margo", "margo", comm::margo),
    ("driver.collectives", "mona", comm::collectives),
    ("driver.ssg", "ssg", comm::ssg),
    ("driver.icet", "icet", comm::icet),
];

/// Runs every driver and returns their metrics.
pub fn run_all(cx: &Ctx, rec: &Arc<Recorder>) -> Values {
    let mut out = Values::new();
    let cluster = hpcsim::Cluster::new(hpcsim::ClusterConfig {
        seed: cx.seed,
        ..hpcsim::ClusterConfig::aries()
    });
    let (cx2, rec2) = (cx.clone(), Arc::clone(rec));
    out.extend(
        cluster
            .spawn("drivers", 0, move || {
                let mut v = Values::new();
                for (name, layer, driver) in COMPUTE {
                    v.extend(rec2.time(name, layer, None, || driver(&cx2)).0);
                }
                v
            })
            .join(),
    );
    for (name, layer, driver) in COMM {
        out.extend(rec.time(name, layer, None, || driver(cx)).0);
    }
    out
}

/// Grow, shrink and changed-view `activate` costs from a short run of the
/// `elastic_churn` cycle itself — the "driver" for the resize path when
/// the workload under test is a static one. It is a run of its own: its
/// client calls go to a recorder and a ledger of their own, so neither the
/// static workload's spans nor its `attempted` count see them; `rec` gets
/// the one `driver.resize` span and `ops` one check that the run was clean.
pub fn resize(cx: &Ctx, rec: &Recorder, ops: &Ops) -> Values {
    let plan = Plan::of(Workload::ElasticChurn, cx.smoke);
    let segment = Segment {
        seconds: if cx.smoke { 0.0 } else { 0.5 },
        traced: false,
    };
    let (own_rec, own_ops) = (Arc::new(Recorder::new()), Arc::new(Ops::default()));
    let (run, _) = rec.time("driver.resize", "core", None, || {
        harness::run(&plan, cx.seed, &[segment], &cx.out_dir, &own_ops, &own_rec)
    });
    for message in own_ops.messages() {
        eprintln!("resize driver failed: {message}");
    }
    ops.check(
        "every call and check of the resize driver held",
        own_ops.totals().1 == 0,
    );
    resize_layers(&run.segments[0])
}
