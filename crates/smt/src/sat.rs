//! A CDCL SAT solver.
//!
//! This is the workspace's replacement for Z3's boolean core: conflict-
//! driven clause learning with two-watched-literal propagation, first-UIP
//! conflict analysis, VSIDS-style variable activities with phase saving,
//! and Luby restarts. Clauses can be added incrementally between `solve`
//! calls, which is exactly the interaction pattern of the sketch-completion
//! loop (sample a model, add a blocking clause, repeat).
//!
//! The data layout follows MiniSat (Eén & Sörensson, SAT 2003) where it
//! leaves the search unchanged:
//!
//! - one value per *literal* (`vals`, indexed by the literal's code), so
//!   a literal's truth value is a single load;
//! - each clause's two watched literals kept beside the clause list
//!   (`watched`), so a watch whose other watched literal is already
//!   true — 95 % of the watch visits in a Table-3 pass — is kept without
//!   reading the clause. MiniSat's blocker literal is deliberately not
//!   used: it can go stale, and acting on a stale blocker moves different
//!   watches than this solver does, which changes the search.
//!
//! Clauses stay one `Vec<Lit>` each. Keeping them in one arena took about
//! a further 10 % off solve time in a trial, but raised the synth-table3
//! benchmark's peak memory from 34.8 MB to 40.4–42.1 MB (3 of 3 runs),
//! beyond that metric's 10 % bound.

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

    /// The literal's index into per-literal tables.
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
    /// The two literals each clause is watched on, by clause ref: the set
    /// `{clauses[c][0], clauses[c][1]}`, in either order.
    watched: Vec<[Lit; 2]>,
    watches: Vec<Vec<u32>>, // indexed by literal code
    /// The current value of every literal, indexed by literal code: the
    /// only copy of the assignment.
    vals: Vec<LBool>,
    reason: Vec<Option<u32>>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    act_inc: f64,
    phase: Vec<bool>,
    /// Per-variable marks of `analyze` and `add_clause`; all `false`
    /// between calls.
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
        let v = Var(self.level.len() as u32);
        self.vals.push(LBool::Undef);
        self.vals.push(LBool::Undef);
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
        self.level.len()
    }

    /// Solver statistics.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    fn value(&self, l: Lit) -> LBool {
        self.vals[l.code()]
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
        // Normalize: keep the first occurrence of each literal, drop
        // level-0 false literals, detect tautology and satisfied clauses.
        // A variable is marked in `seen` while one of its literals is in
        // `c`; only a repeated variable needs a look into `c`.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut satisfied = false;
        for &l in lits {
            assert!(
                (l.var().0 as usize) < self.num_vars(),
                "literal references unallocated variable"
            );
            match self.value(l) {
                LBool::True => satisfied = true, // satisfied at level 0
                LBool::False => continue,        // already false at level 0
                LBool::Undef => {
                    let v = l.var().0 as usize;
                    if !self.seen[v] {
                        self.seen[v] = true;
                        c.push(l);
                        continue;
                    }
                    satisfied = c.contains(&!l); // tautology
                }
            }
            if satisfied {
                break;
            }
        }
        for l in &c {
            self.seen[l.var().0 as usize] = false;
        }
        if satisfied {
            return true;
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
        self.watched.push([c[0], c[1]]);
        self.clauses.push(c);
        cref
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<u32>) {
        let v = l.var().0 as usize;
        debug_assert_eq!(self.value(l), LBool::Undef);
        self.vals[l.code()] = LBool::True;
        self.vals[(!l).code()] = LBool::False;
        self.reason[v] = reason;
        self.level[v] = self.decision_level();
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    ///
    /// A watch whose other watched literal is true is kept without
    /// reading the clause. Reading it would only swap its positions 0
    /// and 1, and no reader depends on that order: a visit that reads
    /// the clause normalises it first (so the conflict clause is
    /// normalised when it is returned), and a reason clause keeps its
    /// implied literal at position 0 while it is a reason.
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
                let [w0, w1] = self.watched[cref as usize];
                let first = if w0 == false_lit { w1 } else { w0 };
                if self.value(first) == LBool::True {
                    i += 1;
                    continue; // clause satisfied; keep watching
                }
                #[cfg(test)]
                count_clause_read();
                let c = &mut self.clauses[cref as usize];
                // Make sure the false literal is at position 1.
                if c[0] == false_lit {
                    c.swap(0, 1);
                }
                debug_assert_eq!((c[0], c[1]), (first, false_lit));
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..c.len() {
                    let lk = c[k];
                    if self.vals[lk.code()] != LBool::False {
                        c.swap(1, k);
                        self.watched[cref as usize] = [first, lk];
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
                // `l` is the literal that was set true.
                self.phase[v] = !l.is_neg();
                self.vals[l.code()] = LBool::Undef;
                self.vals[(!l).code()] = LBool::Undef;
                self.reason[v] = None;
            }
        }
        self.qhead = self.trail.len();
    }

    /// Picks the unassigned variable with the highest activity, lowest
    /// index first among equals, and returns it with its saved phase.
    ///
    /// A linear scan. A MiniSat-style activity heap that picks the same
    /// variable was measured on Table 3 (Yelp-2's solver has 181
    /// variables) and gave no gain at this size: solve took 1.02–1.25 s
    /// per pass against the scan's 0.89–1.08 s.
    fn decide(&mut self) -> Option<Lit> {
        let (mut best, mut best_act) = (None, f64::NEG_INFINITY);
        // `vals` holds the positive literal of variable `v` at `2 * v`.
        let unassigned = self.vals.iter().step_by(2).map(|&x| x == LBool::Undef);
        for (v, (free, &act)) in unassigned.zip(&self.activity).enumerate() {
            if free && act > best_act {
                (best, best_act) = (Some(v), act);
            }
        }
        best.map(|v| {
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
                        let vals = &self.vals;
                        self.model.clear();
                        self.model.extend(
                            (0..vals.len())
                                .step_by(2)
                                .map(|code| vals[code] == LBool::True),
                        );
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

#[cfg(test)]
thread_local! {
    static CLAUSE_READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Counts one clause read by `propagate` (test builds only).
#[cfg(test)]
fn count_clause_read() {
    CLAUSE_READS.with(|c| c.set(c.get() + 1));
}

/// Clauses `propagate` read on this thread since the last call.
#[cfg(test)]
fn take_clause_reads() -> usize {
    CLAUSE_READS.with(|c| c.replace(0))
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
pub(crate) mod tests {
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
    fn satisfied_watches_are_kept_without_reading_the_clause() {
        let (mut s, vs) = solver_with(7);
        // (a ∨ b ∨ c), watched on a and b.
        s.add_clause(&lits(&vs, &[1, 2, 3]));
        take_clause_reads();
        s.add_clause(&lits(&vs, &[1])); // a: no watch on ¬a to visit
        s.add_clause(&lits(&vs, &[-2])); // b false, other watch a true
        assert_eq!(take_clause_reads(), 0, "a satisfied watch was read");
        assert_eq!(s.value(Lit::pos(vs[2])), LBool::Undef);

        // Unit propagation reads the clause: d forces e.
        s.add_clause(&lits(&vs, &[-4, 5]));
        take_clause_reads();
        s.add_clause(&lits(&vs, &[4]));
        assert_eq!(take_clause_reads(), 1);
        assert_eq!(s.value(Lit::pos(vs[4])), LBool::True);

        // A conflict reads both clauses: f forces g, and then ¬g.
        s.add_clause(&lits(&vs, &[-6, 7]));
        s.add_clause(&lits(&vs, &[-6, -7]));
        take_clause_reads();
        assert!(!s.add_clause(&lits(&vs, &[6])));
        assert_eq!(take_clause_reads(), 2);
    }

    /// A seeded LCG for the pinned-search tests.
    pub(crate) struct Lcg(pub(crate) u64);

    impl Lcg {
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as usize) % n
        }
    }

    /// FNV-1a, 64 bit.
    pub(crate) struct Fnv(pub(crate) u64);

    impl Fnv {
        pub(crate) fn new() -> Fnv {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        pub(crate) fn word(&mut self, w: u32) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// `SatStats` as `[conflicts, decisions, propagations, restarts,
    /// learnt]`.
    pub(crate) fn stats_of(s: SatStats) -> [u64; 5] {
        [
            s.conflicts,
            s.decisions,
            s.propagations,
            s.restarts,
            s.learnt,
        ]
    }

    /// A random incremental CNF run shaped like sketch completion: short
    /// random clauses near the 3-SAT threshold plus long clauses (with
    /// duplicate and complementary literals), then models enumerated
    /// with long blocking clauses and a new short clause every few
    /// rounds. Returns an FNV hash of the model sequence and the stats.
    fn pinned_sat_run(seed: u64) -> (u64, [u64; 5]) {
        let mut rng = Lcg(seed);
        let n = 90 + rng.below(40);
        let (mut s, vs) = solver_with(n);
        let planted: Vec<bool> = (0..n).map(|_| rng.below(2) == 0).collect();
        let lit = |rng: &mut Lcg| {
            let v = vs[rng.below(n)];
            if rng.below(2) == 0 {
                Lit::pos(v)
            } else {
                Lit::neg(v)
            }
        };
        for _ in 0..n * 42 / 10 {
            let mut c: Vec<Lit> = (0..3).map(|_| lit(&mut rng)).collect();
            if seed % 2 == 1 {
                let k = rng.below(n);
                c[0] = if planted[k] {
                    Lit::pos(vs[k])
                } else {
                    Lit::neg(vs[k])
                };
            }
            s.add_clause(&c);
        }
        for _ in 0..n / 2 {
            let len = 10 + rng.below(16);
            let c: Vec<Lit> = (0..len).map(|_| lit(&mut rng)).collect();
            s.add_clause(&c);
        }
        let mut h = Fnv::new();
        for round in 0..60 {
            if !s.solve() {
                h.word(u32::MAX);
                break;
            }
            let model: Vec<bool> = vs.iter().map(|&v| s.model_value(v)).collect();
            for &b in &model {
                h.word(u32::from(b));
            }
            h.word(u32::MAX - 1);
            let block: Vec<Lit> = vs
                .iter()
                .zip(&model)
                .filter(|_| rng.below(3) != 0)
                .map(|(&v, &b)| if b { Lit::neg(v) } else { Lit::pos(v) })
                .collect();
            s.add_clause(&block);
            if round % 4 == 0 {
                let c = [lit(&mut rng), lit(&mut rng)];
                s.add_clause(&c);
            }
        }
        (h.0, stats_of(s.stats()))
    }

    /// The model sequence and search statistics of `pinned_sat_run`,
    /// recorded before the watched-literal cache and the literal-value
    /// table went in: a faster solver must make the same search.
    #[test]
    fn pinned_incremental_search() {
        let got: Vec<(u64, [u64; 5])> = (1..=6).map(pinned_sat_run).collect();
        let want: [(u64, [u64; 5]); 6] = [
            (6100587192179990420, [34, 1784, 6698, 0, 34]),
            (4752335345673329453, [606, 947, 17014, 4, 598]),
            (2069037513351514004, [30, 2755, 6607, 0, 30]),
            (11047178588169845073, [749, 916, 19941, 5, 739]),
            (13532396129667401509, [41, 2324, 7806, 0, 41]),
            (2632635395847796733, [416, 1374, 17791, 3, 410]),
        ];
        assert_eq!(got, want);
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
