//! **Figure 1a** — cell counts and file sizes of the Deep Water Impact
//! dataset across its 30 iterations — and **Figure 1b** — volume
//! renderings of three iterations (pass `--render`).
//!
//! Run: `cargo run --release -p colza-bench --bin fig1_dwi_growth
//!       [--blocks 8] [--render] [--out /tmp]`

use colza_bench::{report, table};
use hpcsim::stats::fmt_bytes;
use sims::dwi::DwiSeries;
use vizkit::Controller;

fn main() {
    let args = report::begin();
    let blocks: usize = args.get("blocks", 8);
    table::banner(
        "Figure 1a: Deep Water Impact data growth over iterations",
        "(analytic series at paper scale; generated series at harness scale)",
    );
    let paper = DwiSeries::default();
    let local = DwiSeries::scaled_down(blocks);
    println!(
        "{:>9} {:>16} {:>14} {:>18}",
        "iteration", "paper cells (M)", "paper size", "generated cells"
    );
    for iter in 1..=30u64 {
        let generated = if iter % 3 == 1 {
            format!("{}", local.generated_cells(iter))
        } else {
            "-".to_string()
        };
        println!(
            "{iter:>9} {:>16.1} {:>14} {:>18}",
            paper.cells_at(iter) as f64 / 1e6,
            fmt_bytes(paper.bytes_at(iter)),
            generated
        );
    }
    println!();
    println!("Paper shape: ~4 M cells growing to ~132 M; file sizes to ~16 GiB.");

    if args.has("render") {
        let out_dir = std::path::PathBuf::from(args.get_str("out", "/tmp"));
        println!();
        println!("Figure 1b: renderings of iterations 1, 15, 30");
        let script = catalyst::PipelineScript::deep_water_impact(320, 240);
        for iter in [1u64, 15, 30] {
            let pipeline =
                catalyst::CatalystPipeline::new(script.clone(), catalyst::CatalystConfig::default());
            let merged: Vec<vizkit::DataSet> = (0..blocks)
                .map(|b| vizkit::DataSet::UGrid(local.generate_block(iter, b)))
                .collect();
            let ctrl = Controller::new(std::sync::Arc::new(vizkit::controller::DummyComm));
            let img = pipeline
                .execute(&merged, &ctrl)
                .expect("render")
                .expect("serial root image");
            let path = out_dir.join(format!("dwi_iter{iter:02}.ppm"));
            img.write_ppm(&path).expect("write ppm");
            println!(
                "  iteration {iter:>2}: {} ({:.1}% covered) -> {}",
                fmt_bytes((img.width * img.height * 3) as u64),
                img.coverage() * 100.0,
                path.display()
            );
        }
    }
    report::finish();
}
