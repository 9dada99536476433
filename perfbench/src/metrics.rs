//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in
//! step and checks every name and unit against the grammar the result
//! consumer accepts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, shares of useful work).
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction (as listed in `BENCHMARK.json`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees; printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("trials_per_s", "1/s", Higher),
    m("job_turnaround_p50_s", "s", Lower),
    m("job_turnaround_p75_s", "s", Lower),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Metrics of single layers; printed by every traced run.
pub const PER_LAYER: &[Metric] = &[
    m("core.engine.dense_round_us", "us", Lower),
    m("core.engine.message_round_us", "us", Lower),
    m("core.runner.trial_ms_p50", "ms", Lower),
    m("core.runner.trial_ms_p99", "ms", Lower),
    m("core.runner.rounds_per_trial", "count", Lower),
    m("core.runner.kernel_share", "share", Higher),
    m("core.adversary.corrupt_us", "us", Lower),
    m("exp.cell.run_cell_ms_p50", "ms", Lower),
    m("exp.cell.run_cell_ms_p99", "ms", Lower),
    m("par.pool_busy_share", "share", Higher),
    m("exp.store.cell_line_us", "us", Lower),
    m("exp.store.append_us_p50", "us", Lower),
    m("exp.store.sync_ms_p50", "ms", Lower),
    m("exp.store.sync_ms_p99", "ms", Lower),
    m("exp.store.bytes_per_cell", "B", Lower),
    m("fabric.protocol.encode_us", "us", Lower),
    m("fabric.protocol.decode_us", "us", Lower),
    m("fabric.protocol.frame_bytes", "B", Lower),
    m("fabric.serve.lease_rtt_ms_p50", "ms", Lower),
    m("fabric.serve.lease_rtt_ms_p99", "ms", Lower),
    m("fabric.serve.state_us_per_cell", "us", Lower),
    m("fabric.serve.leases_reclaimed", "count", Lower),
    m("fabric.serve.leases_renewed", "count", Lower),
    m("fabric.serve.results_deduped", "count", Lower),
    m("fabric.serve.ingest_share", "share", Higher),
    m("fabric.worker.overhead_ms_per_cell", "ms", Lower),
    m("fabric.worker.reconnects", "count", Lower),
    m("fabric.client.submit_ms_p50", "ms", Lower),
    m("fabric.client.status_ms_p50", "ms", Lower),
    m("fabric.client.status_ms_p99", "ms", Lower),
    m("fabric.queue.first_cell_ms_p50", "ms", Lower),
    m("fabric.queue.state_us_per_cell", "us", Lower),
    m("fabric.queue.drain_s", "s", Lower),
    m("trace.overhead_share", "share", Lower),
    m("trace.unaccounted_share", "share", Lower),
];

/// Whether `name` fits the metric/workload name grammar: starts with a
/// letter or digit; at most 64 of letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the unit grammar: 1–16 of letters, digits, `_`,
/// `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Measured values keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under `name` (must be catalogued).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalogue` with its unit. Fails if a metric is missing or not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[Metric],
    values: &Values,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in catalogue.iter().enumerate() {
        debug_assert!(valid_name(metric.name) && valid_unit(metric.unit));
        let value = values
            .get(metric.name)
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", metric.name));
        }
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest representation that round-trips, so
        // no digit of the measurement is lost (and 3.0 stays "3.0").
        write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_fit_the_grammar() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {}", metric.unit);
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "bad workload name {w}");
        }
    }

    #[test]
    fn grammar_rejects_what_it_should() {
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_name("9.a_b-c"));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let listed: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let expected: Vec<&str> = crate::LISTED
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        assert_eq!(listed, expected);
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name,
                metric.unit,
                match metric.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                }
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut v = Values::default();
        v.set("trials_per_s", 12.5);
        let err = result_line(true, 1, 0, END_TO_END, &v).unwrap_err();
        assert!(err.contains("job_turnaround_p50_s"), "{err}");
        for m in END_TO_END {
            v.set(m.name, 1.0);
        }
        let line = result_line(true, 3, 0, END_TO_END, &v).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}"));
    }
}
