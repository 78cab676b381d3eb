//! Per-layer metrics of a traced run, from its spans and counts, and
//! the fixed list of names every traced run prints.

use crate::decompose::Counts;
use crate::measure::{metric, Metric};
use crate::spans::Tracer;

/// Every per-layer metric, in print order, with its unit. A traced run
/// prints all of them; a layer a workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.run_ms", "ms"),
    ("tinyvm.instructions", "count"),
    ("tinyvm.mips", "Minstr/s"),
    ("trace.events", "count"),
    ("trace.extract_ms", "ms"),
    ("trace.counter_table_ms", "ms"),
    ("tracestore.save_run_ms", "ms"),
    ("tracestore.bytes_written", "B"),
    ("tracestore.manifests_ms", "ms"),
    ("tracestore.load_traces_ms", "ms"),
    ("tracestore.bytes_read", "B"),
    ("tracestore.read_mb_per_s", "MB/s"),
    ("core.featurize_ms", "ms"),
    ("core.intervals", "count"),
    ("core.supervise_overhead_ms", "ms"),
    ("mlcore.scale_ms", "ms"),
    ("mlcore.fit_ms", "ms"),
    ("mlcore.gram_ms", "ms"),
    ("mlcore.smo_ms", "ms"),
    ("mlcore.smo_iterations", "count"),
    ("mlcore.gram_bytes", "B"),
    ("mlcore.support_vectors", "count"),
    ("apps.assemble_ms", "ms"),
    ("apps.glue_ms", "ms"),
    ("service.mine_hot_ms", "ms"),
    ("service.mine_cold_ms", "ms"),
    ("service.lint_ms", "ms"),
    ("service.slice_ms", "ms"),
    ("service.req_p99_ms_nominal", "ms"),
    ("service.req_p99_ms_peak", "ms"),
    ("service.slo_met_ratio_peak", "ratio"),
    ("service.overhead_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.hot_hit_ratio", "ratio"),
    ("service.cpu_ms_per_req", "ms"),
    ("service.shed", "count"),
    ("service.rejected", "count"),
    ("client.retries", "count"),
    ("client.lateness_p99_ms", "ms"),
    ("direct.mine_cold_ms", "ms"),
    ("direct.fingerprint_ms", "ms"),
    ("direct.lint_ms", "ms"),
    ("direct.slice_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("share.mlcore_fit_pct", "%"),
    ("share.netsim_pct", "%"),
    ("share.store_trace_pct", "%"),
];

/// Orders `measured` by [`PER_LAYER`], filling unreached layers with 0.
///
/// # Panics
///
/// On a measured name missing from [`PER_LAYER`] — a bench bug.
pub fn complete(measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == m.name),
            "per-layer metric {} is not in PER_LAYER",
            m.name
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| metric(name, 0.0, unit))
        })
        .collect()
}

/// Per-unit layer times and counts from the decomposition pass.
/// `unit_span` names the spans the pass decomposed; `glue_span` the span
/// whose self time is the glue between layer calls (manifests, labels,
/// document rendering).
pub fn from_spans(tr: &Tracer, c: &Counts, unit_span: &str, glue_span: &str) -> Vec<Metric> {
    let n = c.units.max(1) as f64;
    let per = |name: &str| tr.total_ms(name) / n;
    let unit_ms = tr.total_ms(unit_span) / tr.count(unit_span).max(1) as f64;
    let share = |ms: f64| {
        if unit_ms > 0.0 {
            100.0 * ms / unit_ms
        } else {
            0.0
        }
    };
    let netsim = per("netsim.run");
    let load = per("tracestore.load_traces");
    let fit = per("mlcore.fit");
    let bytes_read = c.bytes_read as f64 / n;
    let store_trace = per("tracestore.manifests")
        + load
        + per("tracestore.save_run")
        + per("trace.extract")
        + per("trace.counter_table");
    vec![
        metric("netsim.run_ms", netsim, "ms"),
        metric("tinyvm.instructions", c.instructions as f64 / n, "count"),
        metric(
            "tinyvm.mips",
            if netsim > 0.0 {
                c.instructions as f64 / n / (netsim * 1e3)
            } else {
                0.0
            },
            "Minstr/s",
        ),
        metric("trace.events", c.events as f64 / n, "count"),
        metric("trace.extract_ms", per("trace.extract"), "ms"),
        metric("trace.counter_table_ms", per("trace.counter_table"), "ms"),
        metric("tracestore.save_run_ms", per("tracestore.save_run"), "ms"),
        metric("tracestore.bytes_written", c.bytes_written as f64 / n, "B"),
        metric("tracestore.manifests_ms", per("tracestore.manifests"), "ms"),
        metric("tracestore.load_traces_ms", load, "ms"),
        metric("tracestore.bytes_read", bytes_read, "B"),
        metric(
            "tracestore.read_mb_per_s",
            if load > 0.0 {
                bytes_read / 1e6 / (load / 1e3)
            } else {
                0.0
            },
            "MB/s",
        ),
        metric("core.featurize_ms", per("core.featurize"), "ms"),
        metric("core.intervals", c.intervals as f64 / n, "count"),
        metric("mlcore.scale_ms", per("mlcore.scale"), "ms"),
        metric("mlcore.fit_ms", fit, "ms"),
        metric("mlcore.gram_ms", per("mlcore.gram"), "ms"),
        metric("mlcore.smo_ms", tr.self_ms("mlcore.fit") / n, "ms"),
        metric(
            "mlcore.smo_iterations",
            c.smo_iterations as f64 / n,
            "count",
        ),
        metric("mlcore.gram_bytes", c.gram_bytes as f64 / n, "B"),
        metric(
            "mlcore.support_vectors",
            c.support_vectors as f64 / n,
            "count",
        ),
        metric("apps.assemble_ms", per("apps.assemble"), "ms"),
        metric("apps.glue_ms", tr.self_ms(glue_span) / n, "ms"),
        metric("share.mlcore_fit_pct", share(fit), "%"),
        metric("share.netsim_pct", share(netsim), "%"),
        metric("share.store_trace_pct", share(store_trace), "%"),
    ]
}

/// Relative change of the traced units' median over the untraced ones.
pub fn trace_overhead_pct(traced_ms: &[f64], untraced_ms: &[f64]) -> Metric {
    let t = crate::measure::quantile(traced_ms, 0.5);
    let u = crate::measure::quantile(untraced_ms, 0.5);
    let pct = if u > 0.0 { 100.0 * (t - u) / u } else { 0.0 };
    metric("bench.trace_overhead_pct", pct, "%")
}
