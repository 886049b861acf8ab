//! A CDCL SAT solver.
//!
//! This is the workspace's replacement for Z3's boolean core: conflict-
//! driven clause learning with two-watched-literal propagation, first-UIP
//! conflict analysis, VSIDS-style variable activities with phase saving,
//! and Luby restarts. Clauses can be added incrementally between `solve`
//! calls, which is exactly the interaction pattern of the sketch-completion
//! loop (sample a model, add a blocking clause, repeat).

use std::fmt;

/// A boolean variable, identified by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this literal is a negation.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "¬x{}", self.var().0)
        } else {
            write!(f, "x{}", self.var().0)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

/// Solver statistics, exposed for the benchmark harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct SatStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses.
    pub learnt: u64,
}

/// A CDCL SAT solver over clauses in conjunctive normal form.
#[derive(Debug, Default)]
pub struct SatSolver {
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<u32>>, // indexed by literal code
    assign: Vec<LBool>,
    reason: Vec<Option<u32>>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    act_inc: f64,
    phase: Vec<bool>,
    /// `analyze`'s marks, one per variable; all `false` between calls.
    seen: Vec<bool>,
    /// The variables `analyze` marked, to clear them afterwards.
    marked: Vec<u32>,
    unsat: bool,
    model: Vec<bool>,
    stats: SatStats,
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            act_inc: 1.0,
            ..Default::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Solver statistics.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    fn value(&self, l: Lit) -> LBool {
        match self.assign[l.var().0 as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_neg() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
            LBool::False => {
                if l.is_neg() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause (a disjunction of literals). Returns `false` if the
    /// solver is already in an unsatisfiable state after the addition.
    ///
    /// Clauses may be added between [`solve`](Self::solve) calls; the
    /// solver automatically returns to decision level 0 after each solve.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if self.unsat {
            return false;
        }
        // Normalize: dedupe, drop level-0 false literals, detect tautology
        // and satisfied clauses.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            assert!(
                (l.var().0 as usize) < self.num_vars(),
                "literal references unallocated variable"
            );
            match self.value(l) {
                LBool::True => return true, // satisfied at level 0
                LBool::False => continue,   // already false at level 0
                LBool::Undef => {
                    if c.contains(&!l) {
                        return true; // tautology
                    }
                    if !c.contains(&l) {
                        c.push(l);
                    }
                }
            }
        }
        match c.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach(c);
                true
            }
        }
    }

    fn attach(&mut self, c: Vec<Lit>) -> u32 {
        let cref = self.clauses.len() as u32;
        self.watches[c[0].code()].push(cref);
        self.watches[c[1].code()].push(cref);
        self.clauses.push(c);
        cref
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<u32>) {
        let v = l.var().0 as usize;
        debug_assert_eq!(self.assign[v], LBool::Undef);
        self.assign[v] = if l.is_neg() {
            LBool::False
        } else {
            LBool::True
        };
        self.reason[v] = reason;
        self.level[v] = self.decision_level();
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < ws.len() {
                let cref = ws[i];
                // Make sure the false literal is at position 1.
                let first = {
                    let c = &mut self.clauses[cref as usize];
                    if c[0] == false_lit {
                        c.swap(0, 1);
                    }
                    debug_assert_eq!(c[1], false_lit);
                    c[0]
                };
                if self.value(first) == LBool::True {
                    i += 1;
                    continue; // clause satisfied; keep watching
                }
                // Look for a new literal to watch.
                let mut moved = false;
                let len = self.clauses[cref as usize].len();
                for k in 2..len {
                    let lk = self.clauses[cref as usize][k];
                    if self.value(lk) != LBool::False {
                        self.clauses[cref as usize].swap(1, k);
                        self.watches[lk.code()].push(cref);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    ws.swap_remove(i);
                    continue;
                }
                // Unit or conflicting.
                if self.value(first) == LBool::False {
                    // Conflict: restore remaining watches and report.
                    self.watches[false_lit.code()].append(&mut ws);
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.unchecked_enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    fn bump(&mut self, v: Var) {
        let a = &mut self.activity[v.0 as usize];
        *a += self.act_inc;
        if *a > 1e100 {
            for x in &mut self.activity {
                *x *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (with the
    /// asserting literal first) and the backjump level.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = conflict;
        let mut idx = self.trail.len();

        loop {
            let start = usize::from(p.is_some());
            for k in start..self.clauses[confl as usize].len() {
                let q = self.clauses[confl as usize][k];
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.marked.push(v as u32);
                    self.bump(q.var());
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal to expand: most recent seen literal on the trail.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().0 as usize] {
                    break;
                }
            }
            let pl = self.trail[idx];
            let v = pl.var().0 as usize;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.reason[v].expect("non-decision literal has a reason");
            p = Some(pl);
        }
        for v in self.marked.drain(..) {
            self.seen[v as usize] = false;
        }

        // Backjump level: highest level among the non-asserting literals.
        let bt = learnt[1..]
            .iter()
            .map(|l| self.level[l.var().0 as usize])
            .max()
            .unwrap_or(0);
        // Move a literal of the backjump level to position 1 so the watch
        // invariant holds after backjumping.
        if learnt.len() > 1 {
            let (mi, _) = learnt[1..]
                .iter()
                .enumerate()
                .max_by_key(|(_, l)| self.level[l.var().0 as usize])
                .expect("nonempty");
            learnt.swap(1, mi + 1);
        }
        (learnt, bt)
    }

    fn cancel_until(&mut self, lvl: u32) {
        while self.decision_level() > lvl {
            let lim = self.trail_lim.pop().expect("level > 0");
            for l in self.trail.drain(lim..) {
                let v = l.var().0 as usize;
                self.phase[v] = self.assign[v] == LBool::True;
                self.assign[v] = LBool::Undef;
                self.reason[v] = None;
            }
        }
        self.qhead = self.trail.len();
    }

    /// Picks the unassigned variable with the highest activity (linear
    /// scan; problem sizes here never justify a heap) and returns it with
    /// its saved phase.
    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<(usize, f64)> = None;
        for v in 0..self.num_vars() {
            if self.assign[v] == LBool::Undef {
                let act = self.activity[v];
                if best.is_none_or(|(_, b)| act > b) {
                    best = Some((v, act));
                }
            }
        }
        best.map(|(v, _)| {
            let var = Var(v as u32);
            if self.phase[v] {
                Lit::pos(var)
            } else {
                Lit::neg(var)
            }
        })
    }

    /// Solves the current formula. Returns `true` (SAT) with a model
    /// retrievable via [`model_value`](Self::model_value), or `false`
    /// (UNSAT). The solver is left at decision level 0 either way, ready
    /// for more clauses.
    pub fn solve(&mut self) -> bool {
        if self.unsat {
            return false;
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return false;
        }

        let mut conflicts_since_restart = 0u64;
        let mut restart_idx = 1u64;
        let mut restart_limit = 100 * luby(restart_idx);

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return false;
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                self.act_inc *= 1.0 / 0.95;
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let asserting = learnt[0];
                    let cref = self.attach(learnt);
                    self.stats.learnt += 1;
                    self.unchecked_enqueue(asserting, Some(cref));
                }
            } else if conflicts_since_restart >= restart_limit {
                self.stats.restarts += 1;
                conflicts_since_restart = 0;
                restart_idx += 1;
                restart_limit = 100 * luby(restart_idx);
                self.cancel_until(0);
            } else {
                match self.decide() {
                    None => {
                        // Full assignment: record the model, reset to level 0.
                        self.model = self.assign.iter().map(|&a| a == LBool::True).collect();
                        self.cancel_until(0);
                        return true;
                    }
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }

    /// The value of `v` in the most recent model.
    ///
    /// # Panics
    /// Panics if no model is available (last solve was UNSAT or never run).
    pub fn model_value(&self, v: Var) -> bool {
        self.model[v.0 as usize]
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …) for 1-based `i`.
fn luby(i: u64) -> u64 {
    let mut x = i - 1;
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver_vars: &[Var], spec: &[i32]) -> Vec<Lit> {
        spec.iter()
            .map(|&i| {
                let v = solver_vars[(i.unsigned_abs() as usize) - 1];
                if i > 0 {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect()
    }

    fn solver_with(n: usize) -> (SatSolver, Vec<Var>) {
        let mut s = SatSolver::new();
        let vs = (0..n).map(|_| s.new_var()).collect();
        (s, vs)
    }

    #[test]
    fn trivial_sat() {
        let (mut s, vs) = solver_with(2);
        s.add_clause(&lits(&vs, &[1, 2]));
        assert!(s.solve());
        assert!(s.model_value(vs[0]) || s.model_value(vs[1]));
    }

    #[test]
    fn trivial_unsat() {
        let (mut s, vs) = solver_with(1);
        s.add_clause(&lits(&vs, &[1]));
        assert!(!s.add_clause(&lits(&vs, &[-1])) || !s.solve());
    }

    #[test]
    fn unit_propagation_chain() {
        let (mut s, vs) = solver_with(5);
        s.add_clause(&lits(&vs, &[1]));
        s.add_clause(&lits(&vs, &[-1, 2]));
        s.add_clause(&lits(&vs, &[-2, 3]));
        s.add_clause(&lits(&vs, &[-3, 4]));
        s.add_clause(&lits(&vs, &[-4, 5]));
        assert!(s.solve());
        for v in vs {
            assert!(s.model_value(v));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // Pigeon i in hole j: p[i][j]; 3 pigeons, 2 holes.
        let (mut s, vs) = solver_with(6);
        let p = |i: usize, j: usize| vs[i * 2 + j];
        for i in 0..3 {
            s.add_clause(&[Lit::pos(p(i, 0)), Lit::pos(p(i, 1))]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    s.add_clause(&[Lit::neg(p(a, j)), Lit::neg(p(b, j))]);
                }
            }
        }
        assert!(!s.solve());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn triangle_two_coloring_unsat_three_sat() {
        // Each node one of k colors; adjacent nodes differ. K3 needs 3.
        for (k, expect) in [(2usize, false), (3usize, true)] {
            let mut s = SatSolver::new();
            let mut v = vec![];
            for _ in 0..3 {
                let mut node = vec![];
                for _ in 0..k {
                    node.push(s.new_var());
                }
                v.push(node);
            }
            for node in &v {
                let c: Vec<Lit> = node.iter().map(|&x| Lit::pos(x)).collect();
                s.add_clause(&c);
                for a in 0..k {
                    for b in (a + 1)..k {
                        s.add_clause(&[Lit::neg(node[a]), Lit::neg(node[b])]);
                    }
                }
            }
            for (x, y) in [(0, 1), (1, 2), (0, 2)] {
                for c in 0..k {
                    let (a, b) = (v[x][c], v[y][c]);
                    s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
                }
            }
            assert_eq!(s.solve(), expect, "k={k}");
        }
    }

    #[test]
    fn incremental_blocking_enumerates_all_models() {
        // x1..x3 free: 8 models; block each and count.
        let (mut s, vs) = solver_with(3);
        s.add_clause(&lits(&vs, &[1, -1])); // no-op tautology exercise
        let mut count = 0;
        while s.solve() {
            count += 1;
            assert!(count <= 8, "enumerated too many models");
            let block: Vec<Lit> = vs
                .iter()
                .map(|&v| {
                    if s.model_value(v) {
                        Lit::neg(v)
                    } else {
                        Lit::pos(v)
                    }
                })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn tautologies_and_duplicates_handled() {
        let (mut s, vs) = solver_with(2);
        assert!(s.add_clause(&lits(&vs, &[1, -1])));
        assert!(s.add_clause(&lits(&vs, &[2, 2, 2])));
        assert!(s.solve());
        assert!(s.model_value(vs[1]));
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn random_3sat_satisfiable_instances() {
        // Deterministic LCG; planted-solution instances must be SAT and the
        // model must satisfy every clause.
        let mut seed = 0xdeadbeefu64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for _ in 0..20 {
            let n = 20;
            let (mut s, vs) = solver_with(n);
            let planted: Vec<bool> = (0..n).map(|_| rng() % 2 == 0).collect();
            let mut cls = vec![];
            for _ in 0..80 {
                let mut c = vec![];
                // Ensure at least one literal agrees with the planted model.
                let forced = rng() % n;
                c.push(if planted[forced] {
                    Lit::pos(vs[forced])
                } else {
                    Lit::neg(vs[forced])
                });
                for _ in 0..2 {
                    let v = rng() % n;
                    c.push(if rng() % 2 == 0 {
                        Lit::pos(vs[v])
                    } else {
                        Lit::neg(vs[v])
                    });
                }
                s.add_clause(&c);
                cls.push(c);
            }
            assert!(s.solve());
            for c in cls {
                assert!(c.iter().any(|l| {
                    let val = s.model_value(l.var());
                    if l.is_neg() {
                        !val
                    } else {
                        val
                    }
                }));
            }
        }
    }
}
