//! **Figure 3** — rendered results of the Gray–Scott (isosurfaces +
//! clip) and Mandelbulb (single isosurface) pipelines.
//!
//! Run: `cargo run --release -p colza-bench --bin fig3_renders
//!       [--grid 48] [--steps 400] [--out /tmp]`

use std::sync::Arc;

use colza_bench::{report, table};
use sims::gray_scott::{GrayScott, GrayScottParams};
use sims::mandelbulb::Mandelbulb;
use vizkit::Controller;

fn main() {
    let args = report::begin();
    let grid: usize = args.get("grid", 48);
    let steps: usize = args.get("steps", 400);
    let out_dir = std::path::PathBuf::from(args.get_str("out", "/tmp"));
    table::banner("Figure 3: rendered pipeline outputs", "");

    // (a) Gray-Scott: run the reaction to a patterned state, then render.
    let mut sim = GrayScott::serial(grid, GrayScottParams::default());
    sim.run(steps, None).expect("serial run");
    let script = catalyst::PipelineScript::gray_scott(480, 360);
    let pipeline = catalyst::CatalystPipeline::new(script, catalyst::CatalystConfig::default());
    let ctrl = Controller::new(Arc::new(vizkit::controller::DummyComm));
    let img = pipeline
        .execute(&[sim.to_dataset()], &ctrl)
        .expect("gray-scott render")
        .expect("root image");
    let path = out_dir.join("fig3a_gray_scott.ppm");
    img.write_ppm(&path).expect("write ppm");
    println!(
        "(a) Gray-Scott {grid}^3 after {steps} steps: {:.1}% covered -> {}",
        img.coverage() * 100.0,
        path.display()
    );

    // (b) Mandelbulb: one isosurface.
    let bulb = Mandelbulb {
        dims: [args.get("bulb-grid", 96), args.get("bulb-grid", 96), args.get("bulb-grid", 96)],
        ..Default::default()
    };
    let block = bulb.generate_block(0, 1);
    let script = catalyst::PipelineScript::mandelbulb(480, 360);
    let pipeline = catalyst::CatalystPipeline::new(script, catalyst::CatalystConfig::default());
    let img = pipeline
        .execute(&[block], &ctrl)
        .expect("mandelbulb render")
        .expect("root image");
    let path = out_dir.join("fig3b_mandelbulb.ppm");
    img.write_ppm(&path).expect("write ppm");
    println!(
        "(b) Mandelbulb {}^3: {:.1}% covered -> {}",
        bulb.dims[0],
        img.coverage() * 100.0,
        path.display()
    );
    report::finish();
}
