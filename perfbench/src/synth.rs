//! `synth-table3`: synthesize all 28 Table-3 scenarios from their curated
//! examples (Retina-2 from its fixed slice), in order, with the default
//! configuration.
//!
//! An operation is one `synthesize` call. Untraced runs make whole passes
//! over the 28 scenarios until the time is up; a traced run makes one
//! untraced pass and then one pass of the synthesis replay with spans.
//! The seed only picks the generated instance of the golden-agreement
//! check.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dynamite_bench_suite::{all_benchmarks, Benchmark};
use dynamite_core::{synthesize, Example, Synthesis, SynthesisConfig};
use dynamite_datalog::{legacy, Program};
use dynamite_instance::{from_facts, to_facts, Instance};
use dynamite_perfbench::replay::{self, replay, Replay};
use dynamite_perfbench::trace::{self, span};
use dynamite_perfbench::util::{fnv64, geomean, median};

use crate::report::{end_to_end, span_total, trace_layers, write_spans, Outcome, Pass};

/// Scale of the generated instances programs are compared with the
/// golden programs on.
pub const CHECK_SCALE: u64 = 1;

/// Seed of the Table-3 validation instance (the one the repository's
/// end-to-end tests use): a program that disagrees with its golden
/// program there fails. On the instance generated from the run's seed a
/// disagreement is reported, not failed — a curated example can leave a
/// scenario under-specified (at seed 12, Bike-1 and Bike-3 synthesize
/// programs that differ from the golden ones).
const VALIDATION_SEED: u64 = 4242;

/// Set-ups per run (the reported `setup_s` is their median).
const SETUP_REPEATS: usize = 11;

/// Per-scenario counts that repeat exactly from run to run, recorded from
/// the library this benchmark was defined on: name, candidates, MDPs, SAT
/// conflicts, program hash.
const EXPECTED_COUNTS: &str = include_str!("../expected/synth-table3.counts");

struct Inputs {
    benchmarks: Vec<Benchmark>,
    examples: Vec<Example>,
    validation: Vec<Instance>,
    seeded: Vec<Instance>,
}

fn set_up(seed: u64) -> Inputs {
    let benchmarks = all_benchmarks();
    let examples = benchmarks.iter().map(Benchmark::example).collect();
    let generate = |seed| {
        benchmarks
            .iter()
            .map(|b| b.generate_source(CHECK_SCALE, seed))
            .collect()
    };
    let validation = generate(VALIDATION_SEED);
    let seeded = generate(seed);
    Inputs {
        benchmarks,
        examples,
        validation,
        seeded,
    }
}

/// One pass: every scenario synthesized once, with its wall time.
fn pass(inputs: &Inputs) -> Vec<(Duration, Result<Synthesis, String>)> {
    let config = SynthesisConfig::default();
    inputs
        .benchmarks
        .iter()
        .zip(&inputs.examples)
        .map(|(b, ex)| {
            let t = Instant::now();
            let r = synthesize(b.source(), b.target(), std::slice::from_ref(ex), &config);
            (t.elapsed(), r.map_err(|e| e.to_string()))
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(set_up(seed));
        setup.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let n = inputs.benchmarks.len();

    // Timed passes (one in a traced run).
    let start = Instant::now();
    let mut passes = vec![pass(&inputs)];
    while !traced && start.elapsed().as_secs_f64() < seconds {
        passes.push(pass(&inputs));
    }

    // Oracles on the first pass; later passes must repeat it exactly.
    let first: Vec<Option<&Synthesis>> = passes[0].iter().map(|(_, r)| r.as_ref().ok()).collect();
    let verdicts: Vec<Result<(), String>> = (0..n)
        .map(|i| match &passes[0][i].1 {
            Ok(s) => check_program(&inputs, i, &s.program),
            Err(e) => Err(format!("synthesis failed: {e}")),
        })
        .collect();
    for p in &passes {
        for (i, (_, r)) in p.iter().enumerate() {
            let name = inputs.benchmarks[i].name;
            let same = match (r, first[i]) {
                (Ok(s), Some(f)) => s.program.to_string() == f.program.to_string(),
                _ => false,
            };
            match (&verdicts[i], same) {
                (Ok(()), true) => out.check(true),
                (Err(e), _) => out.fail(format!("{name}: {e}")),
                (Ok(()), false) => out.fail(format!("{name}: program differs between passes")),
            }
        }
    }

    let disagree: Vec<&str> = (0..n)
        .filter(|&i| first[i].is_some_and(|s| !agrees_on_seeded(&inputs, i, &s.program)))
        .map(|i| inputs.benchmarks[i].name)
        .collect();
    out.lines.push(format!(
        "golden disagreements on the seed-{seed} instance (reported, not failed): [{}]",
        disagree.join(" ")
    ));

    // The replay: traced in a traced run, untraced otherwise (it supplies
    // the SAT counts either way) — and it must reproduce `synthesize`.
    if traced {
        trace::enable();
    }
    let t = Instant::now();
    let replays: Vec<Result<Replay, String>> = inputs
        .benchmarks
        .iter()
        .zip(&inputs.examples)
        .map(|(b, ex)| {
            span(replay::SYNTH, "synthesize", || {
                replay(
                    b.source(),
                    b.target(),
                    std::slice::from_ref(ex),
                    &SynthesisConfig::default(),
                )
            })
        })
        .collect();
    let replay_wall = t.elapsed();
    let spans = trace::finish();
    for (i, r) in replays.iter().enumerate() {
        let name = inputs.benchmarks[i].name;
        match (r, first[i]) {
            (Ok(r), Some(s)) => match r.mismatch(s) {
                None => out.check(true),
                Some(why) => out.fail(format!("{name}: replay diverges: {why}")),
            },
            (Err(e), _) => out.fail(format!("{name}: replay failed: {e}")),
            (Ok(_), None) => out.fail(format!("{name}: nothing to replay against")),
        }
    }

    // Exact-repeat counters.
    let mut counts = String::new();
    for (i, b) in inputs.benchmarks.iter().enumerate() {
        let (cands, mdps) = first[i].map_or((0, 0), |s| {
            let mdps: usize = s.stats.rules.iter().map(|r| r.mdps_computed).sum();
            (s.stats.total_iterations(), mdps)
        });
        let conflicts = replays[i].as_ref().map_or(0, Replay::conflicts);
        let hash = first[i].map_or(0, |s| fnv64(s.program.to_string().as_bytes()));
        let _ = writeln!(counts, "{} {cands} {mdps} {conflicts} {hash:016x}", b.name);
    }
    out.lines.push(format!(
        "counts (scenario candidates mdps sat_conflicts program_hash):\n{}",
        counts.trim_end()
    ));
    out.lines.push(repeat_check(&counts));

    // Figures.
    let timed: Vec<Pass> = passes
        .iter()
        .map(|p| {
            let op_ms: Vec<f64> = p.iter().map(|(d, _)| d.as_secs_f64() * 1e3).collect();
            Pass {
                throughput: op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3),
                op_ms,
            }
        })
        .collect();
    let totals: Vec<f64> = timed
        .iter()
        .map(|p| p.op_ms.iter().sum::<f64>() / 1e3)
        .collect();
    let geomeans: Vec<f64> = timed.iter().map(|p| geomean(&p.op_ms)).collect();
    let synth_total = median(&totals);
    out.lines.push(format!(
        "synth-table3: passes {} ([{}] s), synth_total_s {synth_total:.4} s (median of passes), \
         synth_geomean_ms {:.4} ms, replay_total_s {:.4} s ({})",
        passes.len(),
        totals
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        median(&geomeans),
        replay_wall.as_secs_f64(),
        if traced { "traced" } else { "untraced" },
    ));
    out.end_to_end = end_to_end(&setup, &timed);

    if traced {
        per_layer(&mut out, &spans, replay_wall, &replays, synth_total, &setup);
        out.lines.push(write_spans("synth-table3", seed, &spans));
    }
    out
}

/// Runs `program` on `input` with the independent interpreter.
fn interpret(b: &Benchmark, program: &Program, input: &Instance) -> Result<Instance, String> {
    let facts = legacy::evaluate(program, &to_facts(input)).map_err(|e| e.to_string())?;
    from_facts(&facts, b.target().clone()).map_err(|e| e.to_string())
}

/// Checks one synthesized program with the independent interpreter: it
/// reproduces its example's output, and agrees with the golden program
/// on the validation instance.
fn check_program(inputs: &Inputs, i: usize, program: &Program) -> Result<(), String> {
    let b = &inputs.benchmarks[i];
    let ex = &inputs.examples[i];
    if !interpret(b, program, &ex.input)?.canon_eq(&ex.output) {
        return Err("program does not reproduce its example".to_string());
    }
    let check = &inputs.validation[i];
    if !interpret(b, program, check)?.canon_eq(&interpret(b, b.golden(), check)?) {
        return Err("program disagrees with the golden program".to_string());
    }
    Ok(())
}

/// Whether `program` agrees with the golden program on the instance
/// generated from the run's seed.
fn agrees_on_seeded(inputs: &Inputs, i: usize, program: &Program) -> bool {
    let b = &inputs.benchmarks[i];
    let input = &inputs.seeded[i];
    match (
        interpret(b, program, input),
        interpret(b, b.golden(), input),
    ) {
        (Ok(got), Ok(want)) => got.canon_eq(&want),
        _ => false,
    }
}

/// Compares this run's counts with the recorded ones.
fn repeat_check(counts: &str) -> String {
    let expected: Vec<&str> = EXPECTED_COUNTS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let differing: Vec<String> = counts
        .lines()
        .zip(expected.iter().chain(std::iter::repeat(&"(none)")))
        .filter(|(got, want)| got != *want)
        .map(|(got, want)| format!("got `{got}`, recorded `{want}`"))
        .collect();
    if differing.is_empty() && counts.lines().count() == expected.len() {
        "repeat-check: counts match the recorded counts".to_string()
    } else {
        format!(
            "repeat-check: COUNTS DIFFER from the recorded counts: {}",
            differing.join("; ")
        )
    }
}

fn per_layer(
    out: &mut Outcome,
    spans: &[trace::Span],
    wall: Duration,
    replays: &[Result<Replay, String>],
    untraced_total: f64,
    setup: &[f64],
) {
    use replay::{ANALYZE, ENGINE, INSTANCE, SIMPLIFY, SMT, SYNTH};
    let ok: Vec<&Replay> = replays.iter().filter_map(|r| r.as_ref().ok()).collect();
    let sum = |f: &dyn Fn(&Replay) -> f64| ok.iter().map(|r| f(r)).sum::<f64>();
    let l = &mut out.layers;
    trace_layers(spans, wall, l);
    l.insert("setup.generate_s", median(setup));
    l.insert("setup.session_s", 0.0);
    let traced = wall.as_secs_f64();
    l.insert("trace.overhead_s", traced - untraced_total);
    l.insert("trace.overhead_ratio", traced / untraced_total - 1.0);
    let candidates = sum(&|r| r.candidates() as f64);
    let rules = sum(&|r| r.rules.len() as f64);
    l.insert("synth.prepare_s", span_total(spans, SYNTH, "prepare"));
    l.insert("synth.candidates", candidates);
    l.insert("synth.accept_ratio", rules / candidates.max(1.0));
    l.insert(
        "synth.blocking_clauses",
        sum(&|r| r.rules.iter().map(|x| x.blocking_clauses as f64).sum()),
    );
    l.insert("smt.solve_s", span_total(spans, SMT, "solve"));
    l.insert("smt.solve_calls", sum(&|r| r.counters.solve_calls as f64));
    let sat = |f: &dyn Fn(&dynamite_smt::SatStats) -> u64| {
        sum(&|r| r.rules.iter().map(|x| f(&x.sat) as f64).sum())
    };
    l.insert("smt.conflicts", sat(&|s| s.conflicts));
    l.insert("smt.decisions", sat(&|s| s.decisions));
    l.insert("smt.propagations", sat(&|s| s.propagations));
    l.insert("smt.restarts", sat(&|s| s.restarts));
    l.insert("smt.learnt", sat(&|s| s.learnt));
    l.insert("analyze.mdp_s", span_total(spans, ANALYZE, "mdp_set"));
    l.insert("analyze.mdp_calls", sum(&|r| r.counters.mdp_calls as f64));
    l.insert("analyze.mdps", sum(&|r| r.mdps() as f64));
    l.insert(
        "analyze.mdp_budget_exhausted",
        sum(&|r| r.counters.mdp_budget_exhausted as f64),
    );
    l.insert(
        "analyze.generalize_s",
        span_total(spans, ANALYZE, "generalize"),
    );
    l.insert("engine.candidate_eval_s", span_total(spans, ENGINE, "eval"));
    l.insert(
        "engine.candidate_facts_out",
        sum(&|r| r.counters.facts_out as f64),
    );
    l.insert(
        "instance.from_facts_s",
        span_total(spans, INSTANCE, "from_facts"),
    );
    l.insert("instance.flatten_s", span_total(spans, INSTANCE, "flatten"));
    l.insert("instance.compare_s", span_total(spans, INSTANCE, "compare"));
    l.insert("simplify_s", span_total(spans, SIMPLIFY, "simplify"));
    out.lines.push(format!(
        "trace: replay {traced:.4} s vs synthesize {untraced_total:.4} s \
         (tracing overhead {:.4} s), coverage {:.4}",
        traced - untraced_total,
        out.layers["trace.coverage"],
    ));
}
