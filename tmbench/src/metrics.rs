//! Metric names, units and values, and the result line.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::stms::StmKind;
use crate::window::Window;

/// A metric as declared in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn def(name: String, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Per-STM end-to-end metrics: `(suffix, unit, better)`.
const END_TO_END: [(&str, &str, &str); 3] = [
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_us", "us", "lower"),
    ("op_p99_us", "us", "lower"),
];

/// Per-STM per-layer metrics: `(suffix, unit, better)`.
const PER_LAYER: [(&str, &str, &str); 19] = [
    ("tm.attempts_per_commit", "ratio", "lower"),
    ("tm.wasted_share", "ratio", "lower"),
    ("tm.body_self_ns_per_op", "ns", "lower"),
    ("read.ns_per_call", "ns", "lower"),
    ("read.calls_per_op", "count", "lower"),
    ("read.abort_ratio", "ratio", "lower"),
    ("write.ns_per_call", "ns", "lower"),
    ("write.calls_per_op", "count", "lower"),
    ("write.abort_ratio", "ratio", "lower"),
    ("commit.ns_per_call", "ns", "lower"),
    ("commit.abort_ratio", "ratio", "lower"),
    ("begin.ns_per_call", "ns", "lower"),
    ("rollback.ns_per_call", "ns", "lower"),
    ("algo.busy_share", "ratio", "lower"),
    ("cm.resolves_per_op", "count", "lower"),
    ("cm.resolve_ns_per_call", "ns", "lower"),
    ("cm.wait_share", "ratio", "lower"),
    ("cm.backoff_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "higher"),
];

fn per_stm(table: &[(&str, &'static str, &'static str)]) -> Vec<MetricDef> {
    StmKind::ALL
        .into_iter()
        .flat_map(|stm| {
            table.iter().map(move |&(suffix, unit, better)| {
                def(format!("{}.{suffix}", stm.label()), unit, better)
            })
        })
        .collect()
}

/// The end-to-end metrics, printed by untraced runs.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut defs = per_stm(&END_TO_END);
    defs.push(def("setup_s".to_string(), "s", "lower"));
    defs
}

/// The per-layer metrics, printed by traced runs.
pub fn per_layer() -> Vec<MetricDef> {
    per_stm(&PER_LAYER)
}

/// Median of `values` (mean of the middle two for even lengths); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Operations completed over all `windows`, divided by their summed
/// length.
pub fn throughput(windows: &[Window]) -> f64 {
    let ops: u64 = windows.iter().map(|w| w.ops).sum();
    let secs: f64 = windows.iter().map(|w| w.elapsed.as_secs_f64()).sum();
    ratio(ops as f64, secs)
}

/// End-to-end values of one STM: operations per second over all its
/// windows, and the latency percentiles of all operations of its windows.
pub fn end_to_end_values(stm: StmKind, windows: &[Window]) -> Vec<(String, f64)> {
    let mut latency = Histogram::default();
    for w in windows {
        latency.merge(&w.latency);
    }
    let quantile_us = |q: f64| latency.quantile(q).map_or(f64::NAN, |ns| ns / 1000.0);
    let label = stm.label();
    vec![
        (format!("{label}.ops_per_s"), throughput(windows)),
        (format!("{label}.op_p50_us"), quantile_us(0.5)),
        (format!("{label}.op_p99_us"), quantile_us(0.99)),
    ]
}

/// Per-layer values of one STM from its traced windows, with `overhead`
/// (traced over untraced operations per second). `clock_ns` is the cost of
/// one clock read, taken out of every timed interval.
pub fn per_layer_values(
    stm: StmKind,
    traced: &[Window],
    overhead: f64,
    clock_ns: f64,
) -> Vec<(String, f64)> {
    let mut c = crate::trace::LayerCounts::default();
    let (mut resolves, mut resolve_ns) = (0u64, 0u64);
    let (mut ops, mut thread_ns, mut wait_ns, mut backoff_ns) = (0.0, 0.0, 0.0, 0.0);
    for w in traced {
        if let Some((counts, (calls, ns))) = &w.layers {
            c.add(counts);
            resolves += calls;
            resolve_ns += ns;
        }
        ops += w.ops as f64;
        thread_ns += w.thread_ns();
        wait_ns += w.cm_wait_ns as f64;
        backoff_ns += w.backoff_ns as f64;
    }
    // Timed attempts stand for all attempts. The two tm/algo shares are of
    // the timed attempts' own time: timing every call of an attempt slows
    // it, so scaling its time up to the wall clock would overstate them.
    let scale = ratio(c.begins as f64, c.timed_attempts as f64);
    let t = c.corrected(clock_ns);
    let attempt_ns = t.body_self_ns + t.algo_ns();
    let f = |v: u64| v as f64;
    let values = [
        ratio(f(c.begins), f(c.commits())),
        ratio(t.wasted_ns, attempt_ns),
        ratio(t.body_self_ns * scale, ops),
        ratio(t.read_ns, f(c.timed_reads)),
        ratio(f(c.reads), ops),
        ratio(f(c.read_aborts), f(c.reads)),
        ratio(t.write_ns, f(c.timed_writes)),
        ratio(f(c.writes), ops),
        ratio(f(c.write_aborts), f(c.writes)),
        ratio(t.commit_ns, f(c.timed_commits)),
        ratio(f(c.commit_aborts), f(c.commit_calls)),
        ratio(t.begin_ns, f(c.timed_attempts)),
        ratio(t.rollback_ns, f(c.timed_rollbacks)),
        ratio(t.algo_ns(), attempt_ns),
        ratio(f(resolves), ops),
        ratio(f(resolve_ns), f(resolves)),
        ratio(wait_ns, thread_ns),
        ratio(backoff_ns, thread_ns),
        overhead,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(suffix, _, _), v)| (format!("{}.{suffix}", stm.label()), v))
        .collect()
}

/// The result line: every metric of `defs`, in order, from `values`.
/// Values that could not be measured (no successful window) print as 0.
///
/// # Panics
///
/// Panics if `values` lacks a metric of `defs`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<String, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values[&d.name];
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert_eq!(end_to_end().len(), 13);
        assert_eq!(per_layer().len(), 4 * 19);
        let mut seen = HashSet::new();
        for d in &all {
            assert!(valid_name(&d.name), "bad metric name {:?}", d.name);
            assert!(
                seen.insert(d.name.clone()),
                "duplicate metric name {:?}",
                d.name
            );
            assert!(matches!(d.better, "higher" | "lower"));
            assert!(d.unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let compact: String = json.split_whitespace().collect();
        for d in end_to_end().into_iter().chain(per_layer()) {
            let entry = format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                d.name, d.unit, d.better
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let defs = end_to_end();
        let values = defs.iter().map(|d| (d.name.clone(), 1.5)).collect();
        let line = result_line(true, 10, 0, &defs, &values);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}}"));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
