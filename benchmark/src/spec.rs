//! `BENCHMARK.json`, embedded at build time: the one place metric names,
//! units, directions and regression bounds are written down. Reports look
//! units up here, so a metric the code computes but the spec does not
//! name (or the reverse) is an error, not a silent drift.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A workload entry (its `why` line is for readers of the file).
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// Stable identifier.
    pub name: String,
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEndSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// A metric of a single layer (no bound).
#[derive(Debug, Clone, Deserialize)]
pub struct PerLayerSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// The parts of `BENCHMARK.json` the binary itself acts on (`command` and
/// `paths` are for the driver; `tests/schema.rs` checks the whole file).
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    /// How long one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<EndToEndSpec>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<PerLayerSpec>,
}

impl Spec {
    /// The spec this binary was built against.
    pub fn embedded() -> Spec {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json matches the spec schema")
    }
}

/// One reported value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricValue {
    /// The number as measured.
    pub value: f64,
    /// Its unit, from the spec.
    pub unit: String,
}

/// The object a run prints as the last line of its standard output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Whether every output check passed and no call failed.
    pub correct: bool,
    /// Client/admin calls and output checks attempted.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// The metrics, by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

/// Attaches units to `values`, insisting that they are exactly the
/// metrics `wanted` lists.
pub fn with_units<'a>(
    values: &BTreeMap<&'static str, f64>,
    wanted: impl Iterator<Item = (&'a str, &'a str)>,
) -> BTreeMap<String, MetricValue> {
    let mut out = BTreeMap::new();
    for (name, unit) in wanted {
        let value = *values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name:?} is in BENCHMARK.json but was not measured"));
        assert!(
            value.is_finite(),
            "metric {name:?} is not a finite number: {value}"
        );
        out.insert(
            name.to_string(),
            MetricValue {
                value,
                unit: unit.to_string(),
            },
        );
    }
    for name in values.keys() {
        assert!(
            out.contains_key(*name),
            "metric {name:?} was measured but is not in BENCHMARK.json"
        );
    }
    out
}
