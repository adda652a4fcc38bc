//! Each gated or JSON-emitting scenario, once: `run(params) -> rows`
//! drives the deployment, and — where the scenario has a shape to hold —
//! a pure `check(&rows) -> Vec<String>` names every violation. The
//! `bench_*` / `table2_reduce` mains print the rows and hand `check` to
//! [`crate::report::finish`]; `tests/gates.rs` calls the same pair at
//! smoke scale.

pub mod coll;
pub mod heal;
pub mod recovery;
pub mod store;
pub mod table2;
pub mod tenant;
pub mod trigger;
