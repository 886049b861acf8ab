//! `migrate-bulk`: for each of the 28 scenarios, migrate a seeded
//! generated source with the scenario's golden program
//! (`dynamite_migrate::migrate`) and render the target
//! (`writers::render`). No synthesis runs.
//!
//! An operation is one scenario's migrate + render. Untraced runs make
//! whole passes over the 28 scenarios until the time is up; a traced run
//! makes one pass through the same public calls `migrate` makes
//! (`to_facts`, `evaluate`, `from_facts`), each in its own span.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynamite_bench_suite::{all_benchmarks, datasets, Benchmark};
use dynamite_datalog::{evaluate, legacy};
use dynamite_instance::{from_facts, to_facts, Instance};
use dynamite_migrate::{migrate, writers};
use dynamite_perfbench::trace::{self, span};
use dynamite_perfbench::util::{facts_set_eq, fnv64, median};
use dynamite_schema::Schema;

use crate::report::{end_to_end, span_total, trace_layers, write_spans, Outcome, Pass};

/// Dataset scale: about 1.5 M source records over the 28 scenarios.
pub const SCALE: u64 = 400;

/// Set-ups per run (the reported `setup_s` is their median).
const SETUP_REPEATS: usize = 3;

/// What one scenario's migration produced, for the exact-repeat check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Produced {
    facts_out: usize,
    records_out: usize,
    render_hash: u64,
}

fn render_hash(files: &BTreeMap<String, String>) -> (u64, usize) {
    let mut h = 0u64;
    let mut bytes = 0;
    for (name, body) in files {
        h = h.rotate_left(7) ^ fnv64(name.as_bytes()) ^ fnv64(body.as_bytes());
        bytes += body.len();
    }
    (h, bytes)
}

/// The golden output of `b` on `source` under the independent
/// interpreter.
fn oracle(b: &Benchmark, source: &Instance) -> Result<(usize, Instance), String> {
    let facts = legacy::evaluate(b.golden(), &to_facts(source)).map_err(|e| e.to_string())?;
    let inst = from_facts(&facts, b.target().clone()).map_err(|e| e.to_string())?;
    Ok((facts.num_facts(), inst))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let benchmarks = all_benchmarks();
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut sources: BTreeMap<&str, Instance> = BTreeMap::new();
    for _ in 0..SETUP_REPEATS {
        sources.clear();
        let t = Instant::now();
        for d in datasets::all() {
            sources.insert(d.name, (d.generate)(SCALE, seed));
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    let source = |b: &Benchmark| &sources[b.dataset];
    let records: usize = benchmarks.iter().map(|b| source(b).num_records()).sum();
    out.lines.push(format!(
        "migrate-bulk: {} scenarios over {} datasets, {records} source records per pass",
        benchmarks.len(),
        sources.len()
    ));

    if traced {
        traced_pass(&mut out, &benchmarks, &sources, seed, &setup);
        return out;
    }

    // Untimed warm-up pass, checked against the interpreter; every timed
    // pass must then produce exactly the same output.
    let mut first: Vec<Option<Produced>> = Vec::with_capacity(benchmarks.len());
    for b in &benchmarks {
        let src = source(b);
        let produced = migrate(b.golden(), src, b.target().clone()).map(|(inst, report)| {
            let produced = Produced {
                facts_out: report.facts_out,
                records_out: inst.num_records(),
                render_hash: render_hash(&writers::render(&inst)).0,
            };
            (produced, inst)
        });
        match (produced, oracle(b, src)) {
            (Ok((p, inst)), Ok((facts, want))) if facts == p.facts_out && inst.canon_eq(&want) => {
                out.check(true);
                first.push(Some(p));
            }
            (Ok(_), Ok(_)) => {
                out.fail(format!("{}: output differs from the interpreter", b.name));
                first.push(None);
            }
            (Err(e), _) => {
                out.fail(format!("{}: migration failed: {e}", b.name));
                first.push(None);
            }
            (_, Err(e)) => {
                out.fail(format!("{}: interpreter failed: {e}", b.name));
                first.push(None);
            }
        }
    }

    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut op_ms = Vec::with_capacity(benchmarks.len());
        let mut busy = Duration::ZERO;
        let mut migrated = 0usize;
        for (i, b) in benchmarks.iter().enumerate() {
            let src = source(b);
            let t = Instant::now();
            let done = migrate(b.golden(), src, b.target().clone())
                .map(|(inst, report)| (writers::render(&inst), inst, report));
            let dt = t.elapsed();
            busy += dt;
            op_ms.push(dt.as_secs_f64() * 1e3);
            let (files, inst, report) = match done {
                Ok(d) => d,
                Err(e) => {
                    out.fail(format!("{}: migration failed: {e}", b.name));
                    continue;
                }
            };
            migrated += report.records_in;
            let produced = Produced {
                facts_out: report.facts_out,
                records_out: inst.num_records(),
                render_hash: render_hash(&files).0,
            };
            if first[i] == Some(produced) {
                out.check(true);
            } else {
                out.fail(format!("{}: output differs from the checked pass", b.name));
            }
        }
        passes.push(Pass {
            throughput: migrated as f64 / busy.as_secs_f64(),
            op_ms,
        });
    }
    let counts: Vec<String> = benchmarks
        .iter()
        .zip(&first)
        .filter_map(|(b, p)| {
            p.map(|p| {
                format!(
                    "{} {} {} {:016x}",
                    b.name, p.facts_out, p.records_out, p.render_hash
                )
            })
        })
        .collect();
    out.lines.push(format!(
        "counts (scenario facts_out records_out render_hash; depend on the seed):\n{}",
        counts.join("\n")
    ));
    let per_s: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}", p.throughput))
        .collect();
    out.lines.push(format!(
        "migrate-bulk: passes {}, migrate_records_per_s per pass [{}] 1/s",
        passes.len(),
        per_s.join(" ")
    ));
    let per_scenario: Vec<String> = benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let ms: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.op_ms.get(i).copied())
                .collect();
            format!(
                "{}={:.1}/{:.1}",
                b.name,
                median(&ms),
                ms.iter().copied().fold(0.0, f64::max)
            )
        })
        .collect();
    out.lines.push(format!(
        "migrate-bulk: per scenario median/max ms: {}",
        per_scenario.join(" ")
    ));
    out.end_to_end = end_to_end(&setup, &passes);
    out
}

/// One pass through `migrate`'s public calls with spans, checked against
/// the interpreter fact for fact.
fn traced_pass(
    out: &mut Outcome,
    benchmarks: &[Benchmark],
    sources: &BTreeMap<&str, Instance>,
    seed: u64,
    setup: &[f64],
) {
    const ENGINE: &str = "datalog.engine";
    const INSTANCE: &str = "instance";
    const WRITERS: &str = "migrate.writers";
    trace::enable();
    let mut facts_out = 0usize;
    let mut bytes = 0usize;
    let mut excluded = Duration::ZERO;
    let start = Instant::now();
    for b in benchmarks {
        let src = &sources[b.dataset];
        let target: Arc<Schema> = b.target().clone();
        let result = span("bench", "migrate", || {
            let facts = span(INSTANCE, "to_facts", || to_facts(src));
            let derived =
                span(ENGINE, "eval", || evaluate(b.golden(), &facts)).map_err(|e| e.to_string())?;
            let inst = span(INSTANCE, "from_facts", || from_facts(&derived, target))
                .map_err(|e| e.to_string())?;
            let files = span(WRITERS, "render", || writers::render(&inst));
            Ok::<_, String>((facts, derived, inst, files))
        });
        // The interpreter check, and freeing the outputs, are not traced.
        let t = Instant::now();
        match result {
            Ok((facts, derived, _inst, files)) => {
                facts_out += derived.num_facts();
                bytes += render_hash(&files).1;
                match legacy::evaluate(b.golden(), &facts) {
                    Ok(want) => out.check(facts_set_eq(&derived, &want)),
                    Err(e) => out.fail(format!("{}: interpreter failed: {e}", b.name)),
                }
            }
            Err(e) => out.fail(format!("{}: migration failed: {e}", b.name)),
        }
        excluded += t.elapsed();
    }
    let wall = start.elapsed() - excluded;
    let spans = trace::finish();
    let l = &mut out.layers;
    trace_layers(&spans, wall, l);
    l.insert("setup.generate_s", median(setup));
    l.insert("setup.session_s", 0.0);
    l.insert(
        "instance.to_facts_s",
        span_total(&spans, INSTANCE, "to_facts"),
    );
    l.insert("engine.eval_s", span_total(&spans, ENGINE, "eval"));
    l.insert("engine.facts_out", facts_out as f64);
    l.insert(
        "instance.from_facts_s",
        span_total(&spans, INSTANCE, "from_facts"),
    );
    l.insert("writers.render_s", span_total(&spans, WRITERS, "render"));
    l.insert("writers.bytes", bytes as f64);
    out.lines.push(format!(
        "trace: one pass {:.4} s, coverage {:.4}",
        wall.as_secs_f64(),
        out.layers["trace.coverage"]
    ));
    out.lines.push(write_spans("migrate-bulk", seed, &spans));
}
