//! **Figure 7** — Deep Water Impact: client-observed `execute` per
//! iteration (the mesh grows every iteration) at several staging-area
//! sizes, MPI vs MoNA.
//!
//! Paper scale: 32 client processes reading 512 files per iteration;
//! 8/16/32/64 Colza processes. The scaled default sweeps 2/4/8 servers
//! over 16 blocks and 4 clients.

use colza::CommMode;

use crate::{run_pipeline_experiment, workloads, PipelineExperiment};

/// What [`check`] verifies.
pub const HOLDS: &str = "late-iteration execute ordered by staging-area size (more servers \
     faster) in each comm mode, and on the smallest area >= 2x its early-iteration execute";

/// The iterations (1-based, inclusive) whose mean execute the shape reads:
/// late, when the mesh is largest, and early, for the growth.
pub const LATE: (u64, u64) = (26, 30);
pub const EARLY: (u64, u64) = (2, 6);

/// The sweep.
pub struct Params {
    pub servers: Vec<usize>,
    pub blocks: usize,
    pub clients: usize,
    pub iters: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            servers: vec![2, 4, 8],
            blocks: 16,
            clients: 4,
            iters: 30,
        }
    }
}

/// One column of the figure: a comm mode at one staging-area size.
pub struct Row {
    /// `"MPI"` or `"MoNA"`.
    pub mode: &'static str,
    pub servers: usize,
    /// Client-observed `execute` of iterations 1, 2, …
    pub execute_ns: Vec<u64>,
}

/// Runs every (size, mode) column of the sweep.
pub fn run(p: &Params) -> Vec<Row> {
    let series = sims::dwi::DwiSeries::scaled_down(p.blocks);
    let mut rows = Vec::new();
    for &servers in &p.servers {
        for (comm, mode) in [
            (CommMode::MpiStatic(minimpi::Profile::Vendor), "MPI"),
            (CommMode::Mona, "MoNA"),
        ] {
            let script = catalyst::PipelineScript::deep_water_impact(256, 192);
            let exp = PipelineExperiment::new(servers, p.clients, comm, script, p.iters);
            let times = run_pipeline_experiment(exp, workloads::dwi(series, 1));
            let execute_ns = times.iter().map(|t| t.execute_ns).collect();
            rows.push(Row {
                mode,
                servers,
                execute_ns,
            });
        }
    }
    rows
}

/// Mean of iterations `first..=last` (1-based) of `ns`, in ms; `None` when
/// the series stops earlier.
pub fn mean_ms(ns: &[u64], (first, last): (u64, u64)) -> Option<f64> {
    let window = ns.get(first as usize - 1..last as usize)?;
    Some(window.iter().sum::<u64>() as f64 / window.len() as f64 / 1e6)
}

/// The paper's Fig. 7 shape: in each comm mode, more servers render the
/// late iterations faster, and on the smallest staging area the late
/// iterations cost at least twice the early ones (the growing mesh).
pub fn check(rows: &[Row]) -> Vec<String> {
    let mut violations = Vec::new();
    for mode in ["MPI", "MoNA"] {
        let mut late = Vec::new();
        for r in rows.iter().filter(|r| r.mode == mode) {
            match mean_ms(&r.execute_ns, LATE) {
                Some(ms) => late.push((r.servers, ms, &r.execute_ns)),
                None => violations.push(format!(
                    "{mode}({}): {} iterations, the shape reads {}-{}",
                    r.servers,
                    r.execute_ns.len(),
                    LATE.0,
                    LATE.1
                )),
            }
        }
        late.sort_by_key(|&(servers, ..)| servers);
        for pair in late.windows(2) {
            let ((fewer, slow, _), (more, fast, _)) = (pair[0], pair[1]);
            if slow <= fast {
                violations.push(format!(
                    "{mode}: {more} servers take {fast:.1} ms over iterations {}-{}, \
                     not less than {fewer} servers' {slow:.1} ms",
                    LATE.0, LATE.1
                ));
            }
        }
        if let Some(&(servers, late_ms, ns)) = late.first() {
            let early_ms = mean_ms(ns, EARLY).unwrap_or(f64::INFINITY);
            if late_ms < 2.0 * early_ms {
                violations.push(format!(
                    "{mode}({servers}): iterations {}-{} take {late_ms:.1} ms, \
                     under 2x the {early_ms:.1} ms of iterations {}-{}",
                    LATE.0, LATE.1, EARLY.0, EARLY.1
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A column that costs `early` ms on iterations 1-10 and `late` ms
    /// after.
    fn row(mode: &'static str, servers: usize, early: u64, late: u64) -> Row {
        let execute_ns = (1..=30)
            .map(|i| if i <= 10 { early } else { late } * hpcsim::MS)
            .collect();
        Row {
            mode,
            servers,
            execute_ns,
        }
    }

    fn shaped() -> Vec<Row> {
        let mut rows = Vec::new();
        for mode in ["MPI", "MoNA"] {
            rows.push(row(mode, 2, 8, 20));
            rows.push(row(mode, 4, 6, 14));
            rows.push(row(mode, 8, 5, 11));
        }
        rows
    }

    #[test]
    fn the_paper_shape_holds() {
        assert!(check(&shaped()).is_empty(), "{:?}", check(&shaped()));
    }

    #[test]
    fn eight_servers_slower_than_four_is_named() {
        let mut rows = shaped();
        rows[5] = row("MoNA", 8, 5, 15);
        let v = check(&rows);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("MoNA: 8 servers take 15.0 ms"), "{v:?}");
    }

    #[test]
    fn flat_growth_is_named() {
        let mut rows = shaped();
        rows[0] = row("MPI", 2, 12, 20);
        let v = check(&rows);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].starts_with("MPI(2): iterations 26-30 take 20.0 ms"),
            "{v:?}"
        );
    }
}
