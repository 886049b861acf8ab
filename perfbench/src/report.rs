//! What a workload run reports: the run environment, the end-to-end
//! metrics, the per-layer metrics of a traced run, and the result line.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::Duration;

use dynamite_datalog::{pool, DurableOptions};
use dynamite_perfbench::trace::{self, Span};
use dynamite_perfbench::util::{
    geomean, median, metric, peak_rss_mb, percentile, result_json, Metric,
};

/// The per-layer metrics of a traced run, with units, in output order.
/// Every traced run reports all of them; a layer its workload never
/// calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.generate_s", "s"),
    ("setup.session_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("smt.self_s", "s"),
    ("core.synthesizer.self_s", "s"),
    ("core.analyze.self_s", "s"),
    ("core.simplify.self_s", "s"),
    ("datalog.engine.self_s", "s"),
    ("datalog.durable.self_s", "s"),
    ("datalog.query.self_s", "s"),
    ("instance.self_s", "s"),
    ("migrate.writers.self_s", "s"),
    ("bench.self_s", "s"),
    ("synth.prepare_s", "s"),
    ("synth.candidates", "count"),
    ("synth.accept_ratio", "ratio"),
    ("synth.blocking_clauses", "count"),
    ("smt.solve_s", "s"),
    ("smt.solve_calls", "count"),
    ("smt.conflicts", "count"),
    ("smt.decisions", "count"),
    ("smt.propagations", "count"),
    ("smt.restarts", "count"),
    ("smt.learnt", "count"),
    ("analyze.mdp_s", "s"),
    ("analyze.mdp_calls", "count"),
    ("analyze.mdps", "count"),
    ("analyze.mdp_budget_exhausted", "count"),
    ("analyze.generalize_s", "s"),
    ("engine.candidate_eval_s", "s"),
    ("engine.candidate_facts_out", "count"),
    ("instance.from_facts_s", "s"),
    ("instance.flatten_s", "s"),
    ("instance.compare_s", "s"),
    ("simplify_s", "s"),
    ("instance.to_facts_s", "s"),
    ("engine.eval_s", "s"),
    ("engine.facts_out", "count"),
    ("writers.render_s", "s"),
    ("writers.bytes", "bytes"),
    ("durable.apply_s", "s"),
    ("durable.wal_bytes", "bytes"),
    ("durable.checkpoints_auto", "count"),
    ("served.apply_s", "s"),
    ("served.query_hit_s", "s"),
    ("served.query_miss_s", "s"),
    ("query.cache_hit_ratio", "ratio"),
    ("query.fixpoints", "count"),
    ("query.fallbacks", "count"),
    ("durable.checkpoint_s", "s"),
    ("durable.open_s", "s"),
    ("durable.frames_replayed", "count"),
];

/// Layers (span `layer` values) and their self-time metric.
const LAYER_SELF: &[(&str, &str)] = &[
    ("smt", "smt.self_s"),
    ("core.synthesizer", "core.synthesizer.self_s"),
    ("core.analyze", "core.analyze.self_s"),
    ("core.simplify", "core.simplify.self_s"),
    ("datalog.engine", "datalog.engine.self_s"),
    ("datalog.durable", "datalog.durable.self_s"),
    ("datalog.query", "datalog.query.self_s"),
    ("instance", "instance.self_s"),
    ("migrate.writers", "migrate.writers.self_s"),
    ("bench", "bench.self_s"),
];

/// Per-layer metric values of a traced run, keyed by [`PER_LAYER`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed operations plus end-of-run checks).
    pub attempted: u64,
    /// Operations whose output failed its oracle, or that errored.
    pub failed: u64,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// Report lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a failed check with its reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.lines.push(format!("FAILED: {}", why.into()));
    }

    /// The result line for a run with or without tracing.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<Metric> = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    metric(name, self.layers.get(name).copied().unwrap_or(0.0), unit)
                })
                .collect()
        } else {
            self.end_to_end.clone()
        };
        result_json(
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            &metrics,
        )
    }
}

/// One pass of timed work: units of work per second of timed work, and
/// the latency of each timed operation in ms.
pub struct Pass {
    /// Units of work per second.
    pub throughput: f64,
    /// Operation latencies, ms.
    pub op_ms: Vec<f64>,
}

/// The end-to-end metrics every workload reports: the median of the
/// repeated set-ups, peak memory, and the median over passes of each
/// pass's throughput, median, geometric-mean and 99th-percentile latency
/// (so the sample a percentile lands on does not depend on how many
/// passes fit in the run). The geometric mean stands in for a 90th
/// percentile, which on a 28-scenario pass lands between scenarios of
/// very different cost.
pub fn end_to_end(setup: &[f64], passes: &[Pass]) -> Vec<Metric> {
    let over = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("setup_s", median(setup), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("throughput_per_s", over(&|p| p.throughput), "1/s"),
        metric("op_p50_ms", over(&|p| percentile(&p.op_ms, 50.0)), "ms"),
        metric("op_geomean_ms", over(&|p| geomean(&p.op_ms)), "ms"),
        metric("op_p99_ms", over(&|p| percentile(&p.op_ms, 99.0)), "ms"),
    ]
}

/// Fills the span-derived per-layer metrics: traced wall time, per-layer
/// self time, and the share of `wall` the library's layers cover.
pub fn trace_layers(spans: &[Span], wall: Duration, layers: &mut Layers) {
    let by_layer = trace::self_by_layer(spans);
    let mut covered = Duration::ZERO;
    for &(layer, name) in LAYER_SELF {
        let t = by_layer.get(layer).copied().unwrap_or_default();
        layers.insert(name, t.as_secs_f64());
        if layer != "bench" {
            covered += t;
        }
    }
    for layer in by_layer.keys() {
        assert!(
            LAYER_SELF.iter().any(|&(l, _)| l == *layer),
            "span layer `{layer}` has no self-time metric"
        );
    }
    layers.insert("trace.wall_s", wall.as_secs_f64());
    layers.insert("trace.spans", spans.len() as f64);
    layers.insert(
        "trace.coverage",
        covered.as_secs_f64() / wall.as_secs_f64().max(f64::MIN_POSITIVE),
    );
}

/// Summed duration of the spans named `layer`/`name`.
pub fn span_total(spans: &[Span], layer: &str, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.dur.as_secs_f64())
        .sum()
}

/// Writes `spans` to `perfbench/traces/<workload>-seed<seed>.jsonl` and
/// returns a report line naming the file.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> String {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let written = fs::create_dir_all(&dir)
        .and_then(|()| fs::File::create(&path))
        .and_then(|f| {
            let mut w = BufWriter::new(f);
            trace::write_jsonl(spans, &mut w)?;
            w.flush()
        });
    match written {
        Ok(()) => format!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => format!("spans: {} (not written: {e})", spans.len()),
    }
}

/// The run environment, as one JSON report line.
pub fn environment(workload: &str, seed: u64, seconds: f64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pool_threads = pool::with_threads(None).threads();
    let var = |k: &str| {
        std::env::var(k).map_or("null".to_string(), |v| {
            format!("\"{}\"", v.escape_default())
        })
    };
    let scale = match workload {
        "synth-table3" => crate::synth::CHECK_SCALE,
        "migrate-bulk" => crate::bulk::SCALE,
        _ => crate::serve::SCALE,
    };
    format!(
        "env: {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {traced}, \
         \"nproc\": {nproc}, \"pool_threads\": {pool_threads}, \"fsync\": {}, \"scale\": {scale}, \
         \"DYNAMITE_THREADS\": {}, \"DYNAMITE_NO_REORDER\": {}, \"DYNAMITE_FACT_BUDGET\": {}}}",
        DurableOptions::default().fsync,
        var("DYNAMITE_THREADS"),
        var("DYNAMITE_NO_REORDER"),
        var("DYNAMITE_FACT_BUDGET"),
    )
}
