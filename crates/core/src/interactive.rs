//! Interactive mode (§5, Appendix B).
//!
//! In non-interactive mode Dynamite returns the first program consistent
//! with the examples, which need not be unique (Example 10). Interactive
//! mode repeatedly:
//!
//! 1. checks whether a *semantically different* second program is also
//!    consistent with the current examples;
//! 2. if so, searches a validation pool (records sampled from the real
//!    source instance) for a smallest input on which the two programs
//!    disagree;
//! 3. asks the user — an [`Oracle`] — for the correct output on that
//!    input, adds the answer as a new example, and re-synthesizes.
//!
//! The loop ends when the program is provably unique w.r.t. the search
//! space (the solver exhausts alternatives) or a round limit is reached.

use std::sync::Arc;

use dynamite_datalog::{pool, resolve_reorder, Evaluator, Governor, Program, RuleCacheHandle};
use dynamite_instance::{from_facts, to_facts, Flattened, Instance, Record};
use dynamite_schema::Schema;

use crate::example::Example;
use crate::synthesizer::{SynthesisConfig, SynthesisError, Synthesizer};

/// Answers output queries for candidate inputs (the "user" of §5).
pub trait Oracle {
    /// The correct target instance for the given source instance.
    fn answer(&mut self, input: &Instance) -> Instance;
}

/// An oracle that answers by running a known-good ("golden") program —
/// used by tests and by the scripted-user study harness (Figure 8).
pub struct GoldenOracle {
    program: Program,
    target: Arc<Schema>,
}

impl GoldenOracle {
    /// Creates an oracle around the golden program.
    pub fn new(program: Program, target: Arc<Schema>) -> GoldenOracle {
        GoldenOracle { program, target }
    }
}

impl Oracle for GoldenOracle {
    fn answer(&mut self, input: &Instance) -> Instance {
        let out = Evaluator::new(to_facts(input))
            .eval(&self.program)
            .expect("golden program evaluates");
        from_facts(&out, self.target.clone()).expect("golden output rebuilds")
    }
}

/// Options for the interactive loop.
#[derive(Debug, Clone)]
pub struct InteractiveConfig {
    /// Maximum number of user queries before giving up on uniqueness.
    pub max_rounds: usize,
    /// Largest candidate distinguishing input, in top-level records.
    pub max_input_records: usize,
    /// Cap on candidate subsets tried per size.
    pub max_candidates_per_size: usize,
    /// Synthesis configuration for each round.
    pub synthesis: SynthesisConfig,
}

impl Default for InteractiveConfig {
    fn default() -> Self {
        InteractiveConfig {
            max_rounds: 8,
            max_input_records: 4,
            max_candidates_per_size: 2_000,
            synthesis: SynthesisConfig::default(),
        }
    }
}

/// Result of an interactive session.
#[derive(Debug, Clone)]
pub struct InteractiveResult {
    /// The final program.
    pub program: Program,
    /// Number of synthesis rounds run (≥ 1).
    pub rounds: usize,
    /// Number of oracle queries issued.
    pub queries: usize,
    /// `true` if the final program was proved unique within the sketch
    /// space (no semantically different consistent program remains).
    pub unique: bool,
    /// The accumulated examples (initial + oracle answers).
    pub examples: Vec<Example>,
}

/// Runs the interactive synthesis loop. `pool` supplies validation records
/// (typically sampled from the full source instance, per Appendix B).
pub fn run_interactive(
    source: &Arc<Schema>,
    target: &Arc<Schema>,
    initial: Vec<Example>,
    pool: &Instance,
    oracle: &mut dyn Oracle,
    config: &InteractiveConfig,
) -> Result<InteractiveResult, SynthesisError> {
    let mut examples = initial;
    let mut rounds = 0usize;
    let mut queries = 0usize;

    loop {
        rounds += 1;
        let synth = Synthesizer::new(
            source.clone(),
            target.clone(),
            examples.clone(),
            config.synthesis.clone(),
        )?;
        let (program, alternative) = first_two_programs(&synth)?;
        let Some(program) = program else {
            return Err(SynthesisError::NoProgram {
                rule: target
                    .top_level_records()
                    .next()
                    .unwrap_or_default()
                    .to_string(),
            });
        };
        let Some(alternative) = alternative else {
            return Ok(InteractiveResult {
                program,
                rounds,
                queries,
                unique: true,
                examples,
            });
        };
        if rounds > config.max_rounds {
            return Ok(InteractiveResult {
                program,
                rounds,
                queries,
                unique: false,
                examples,
            });
        }
        // Find a distinguishing input and query the oracle.
        match find_distinguishing_input(source, target, &program, &alternative, pool, config) {
            Some(input) => {
                let output = oracle.answer(&input);
                queries += 1;
                examples.push(Example::new(input, output));
            }
            None => {
                // The two programs agree on everything the pool can
                // express; accept the first.
                return Ok(InteractiveResult {
                    program,
                    rounds,
                    queries,
                    unique: false,
                    examples,
                });
            }
        }
    }
}

/// Returns the first consistent program and, if one exists, a second
/// program that differs semantically in at least one rule.
fn first_two_programs(
    synth: &Synthesizer,
) -> Result<(Option<Program>, Option<Program>), SynthesisError> {
    let n = synth.sketch().rules.len();
    let mut first_rules = Vec::with_capacity(n);
    let mut alternative: Option<(usize, dynamite_datalog::Rule)> = None;
    for i in 0..n {
        let mut solver = synth.rule_solver(i)?;
        match solver.next_consistent()? {
            Some((rule, _)) => {
                if alternative.is_none() {
                    if let Some((alt, _)) = solver.next_consistent()? {
                        alternative = Some((i, alt));
                    }
                }
                first_rules.push(rule);
            }
            None => return Ok((None, None)),
        }
    }
    let program = Program::new(first_rules.clone());
    let alt_program = alternative.map(|(i, alt)| {
        let mut rules = first_rules;
        rules[i] = alt;
        Program::new(rules)
    });
    Ok((Some(program), alt_program))
}

/// Searches the pool for a smallest sub-instance on which the two programs
/// produce different outputs (Appendix B's testing-based search).
fn find_distinguishing_input(
    source: &Arc<Schema>,
    target: &Arc<Schema>,
    p1: &Program,
    p2: &Program,
    pool: &Instance,
    config: &InteractiveConfig,
) -> Option<Instance> {
    let records: Vec<(&str, &Record)> = pool
        .iter()
        .flat_map(|(ty, rs)| rs.iter().map(move |r| (ty, r)))
        .collect();
    if records.is_empty() {
        return None;
    }
    // One prepared context per candidate input; both programs probe the
    // same snapshot and share its join indexes. The contexts honour the
    // session's synthesis configuration — thread count, compiled-plan
    // sharing across candidate inputs, and the join-planner switch (so
    // `SynthesisConfig::reorder` governs disambiguation queries too, not
    // just the CEGIS loop).
    let worker_pool = pool::with_threads(config.synthesis.threads);
    let reorder = resolve_reorder(config.synthesis.reorder);
    let rules = RuleCacheHandle::default();
    let run_pair = |input: &Instance| -> (Option<Flattened>, Option<Flattened>) {
        let ctx =
            Evaluator::with_config(to_facts(input), worker_pool.clone(), rules.clone(), reorder);
        // Disambiguation probes honour the session's per-candidate
        // resource limits too: a probe input that blows the budget is
        // simply treated as non-distinguishing and skipped, instead of
        // stalling the interactive session.
        let limits = config.synthesis.candidate_limits.resolve(None);
        let run = |p: &Program| {
            let out = match limits {
                Some(l) => ctx.eval_governed(p, &Governor::new(l)).ok()?,
                None => ctx.eval(p).ok()?,
            };
            Flattened::from_facts(&out, target).ok()
        };
        (run(p1), run(p2))
    };

    for k in 1..=config.max_input_records.min(records.len()) {
        let mut combo: Vec<usize> = (0..k).collect();
        for _ in 0..config.max_candidates_per_size {
            let mut input = Instance::new(source.clone());
            for &i in &combo {
                let (ty, r) = records[i];
                input.insert(ty, r.clone()).ok()?;
            }
            if let (Some(o1), Some(o2)) = run_pair(&input) {
                if o1 != o2 {
                    return Some(input);
                }
            }
            if !next_combination(&mut combo, records.len()) {
                break;
            }
        }
    }
    // Last resort: the whole pool.
    let (o1, o2) = run_pair(pool);
    if o1.is_some() && o1 != o2 {
        return Some(pool.clone());
    }
    None
}

/// Advances `combo` to the next k-combination of `0..n` in lexicographic
/// order; returns `false` when exhausted.
fn next_combination(combo: &mut [usize], n: usize) -> bool {
    let k = combo.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if combo[i] != i + n - k {
            combo[i] += 1;
            for j in (i + 1)..k {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::works_in;
    use dynamite_datalog::alpha_equivalent;
    use dynamite_instance::Record;

    /// The §5 Example 10 scenario: one example admits both the join
    /// program and the cross-product-ish program; interaction must settle
    /// on the join.
    #[test]
    fn example10_disambiguation() {
        let (source, target, ex) = works_in();
        let golden = Program::parse("WorksIn(x, y) :- Employee(x, z), Department(z, y).").unwrap();
        let mut oracle = GoldenOracle::new(golden.clone(), target.clone());

        // Validation pool: two employees in two departments (the paper's
        // distinguishing instance).
        let mut pool = Instance::new(source.clone());
        pool.insert(
            "Employee",
            Record::from_values(vec!["Alice".into(), 11.into()]),
        )
        .unwrap();
        pool.insert(
            "Employee",
            Record::from_values(vec!["Bob".into(), 12.into()]),
        )
        .unwrap();
        pool.insert(
            "Department",
            Record::from_values(vec![11.into(), "CS".into()]),
        )
        .unwrap();
        pool.insert(
            "Department",
            Record::from_values(vec![12.into(), "EE".into()]),
        )
        .unwrap();

        let result = run_interactive(
            &source,
            &target,
            vec![ex],
            &pool,
            &mut oracle,
            &InteractiveConfig::default(),
        )
        .unwrap();
        assert!(result.queries >= 1, "ambiguity should trigger a query");
        assert!(
            alpha_equivalent(&result.program.rules[0], &golden.rules[0]),
            "got {}",
            result.program
        );
    }

    #[test]
    fn unique_program_needs_no_queries() {
        // With the richer two-employee example given up front, the join
        // program is already unique.
        let (source, target, _) = works_in();
        let golden = Program::parse("WorksIn(x, y) :- Employee(x, z), Department(z, y).").unwrap();
        let mut pool = Instance::new(source.clone());
        for (n, d) in [("Alice", 11i64), ("Bob", 12)] {
            pool.insert("Employee", Record::from_values(vec![n.into(), d.into()]))
                .unwrap();
        }
        for (d, dn) in [(11i64, "CS"), (12, "EE")] {
            pool.insert("Department", Record::from_values(vec![d.into(), dn.into()]))
                .unwrap();
        }
        let mut oracle = GoldenOracle::new(golden.clone(), target.clone());
        let rich_output = oracle.answer(&pool);
        let ex = Example::new(pool.clone(), rich_output);
        let result = run_interactive(
            &source,
            &target,
            vec![ex],
            &pool,
            &mut oracle,
            &InteractiveConfig::default(),
        )
        .unwrap();
        assert_eq!(result.queries, 0);
        assert!(result.unique);
    }
}
