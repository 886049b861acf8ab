//! Finite-domain equality logic on top of the SAT core.
//!
//! This layer implements exactly the theory fragment Dynamite's sketch
//! encoding needs (paper §4.3):
//!
//! - integer-like variables `x_i`, each ranging over a finite domain of
//!   interned constants (`??_i ∈ {v_1, …, v_n}`);
//! - clauses over literals `x = c`, `x ≠ c`, `x = y`, `x ≠ y`;
//! - repeated model queries with incremental clause addition (blocking
//!   clauses).
//!
//! Encoding: each (variable, domain value) pair gets a boolean atom with an
//! exactly-one constraint per variable; variable-variable equality atoms
//! are created lazily and defined by Tseitin transformation as
//! `E_xy ↔ ⋁_v (A_{x,v} ∧ A_{y,v})` over the shared domain values.

use std::collections::HashMap;
use std::fmt;

use crate::sat::{Lit, SatSolver};

/// An interned constant (a "sketch variable" in the paper's encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstId(pub u32);

/// A finite-domain variable (one per sketch hole).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FdVar(pub u32);

/// A literal of the finite-domain equality fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FdLit {
    /// `x = c`
    Eq(FdVar, ConstId),
    /// `x ≠ c`
    Ne(FdVar, ConstId),
    /// `x = y`
    VarEq(FdVar, FdVar),
    /// `x ≠ y`
    VarNe(FdVar, FdVar),
}

impl FdLit {
    /// The negation of this literal.
    pub fn negate(self) -> FdLit {
        match self {
            FdLit::Eq(x, c) => FdLit::Ne(x, c),
            FdLit::Ne(x, c) => FdLit::Eq(x, c),
            FdLit::VarEq(x, y) => FdLit::VarNe(x, y),
            FdLit::VarNe(x, y) => FdLit::VarEq(x, y),
        }
    }
}

/// Errors raised by the finite-domain layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdError {
    /// A constant used in a clause is not in the variable's domain and the
    /// literal is an equality (`x = c` with `c ∉ dom(x)` is just `false`,
    /// which is representable, so this error is only about unknown ids).
    UnknownConst(ConstId),
    /// A variable id out of range.
    UnknownVar(FdVar),
    /// A variable was declared with an empty domain.
    EmptyDomain(String),
}

impl fmt::Display for FdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdError::UnknownConst(c) => write!(f, "unknown constant id {}", c.0),
            FdError::UnknownVar(v) => write!(f, "unknown variable id {}", v.0),
            FdError::EmptyDomain(n) => write!(f, "variable `{n}` has an empty domain"),
        }
    }
}

impl std::error::Error for FdError {}

struct VarInfo {
    domain: Vec<ConstId>,
    /// Atom literal for "this variable takes domain[k]".
    atoms: Vec<Lit>,
    /// Constant id -> index into `domain`.
    by_const: HashMap<ConstId, usize>,
}

/// A model: the chosen constant for each variable, by variable index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdModel {
    values: Vec<ConstId>,
}

impl FdModel {
    /// The value assigned to `x`.
    pub fn value(&self, x: FdVar) -> ConstId {
        self.values[x.0 as usize]
    }

    /// Iterates `(variable, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FdVar, ConstId)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &c)| (FdVar(i as u32), c))
    }

    /// Number of variables in the model.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the model covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Evaluates a literal under this model.
    pub fn satisfies_lit(&self, lit: FdLit) -> bool {
        match lit {
            FdLit::Eq(x, c) => self.value(x) == c,
            FdLit::Ne(x, c) => self.value(x) != c,
            FdLit::VarEq(x, y) => self.value(x) == self.value(y),
            FdLit::VarNe(x, y) => self.value(x) != self.value(y),
        }
    }

    /// Evaluates a clause (disjunction) under this model.
    pub fn satisfies_clause(&self, clause: &[FdLit]) -> bool {
        clause.iter().any(|&l| self.satisfies_lit(l))
    }
}

/// The finite-domain solver.
pub struct FdSolver {
    sat: SatSolver,
    consts: Vec<String>,
    const_ids: HashMap<String, ConstId>,
    vars: Vec<VarInfo>,
    eq_atoms: HashMap<(FdVar, FdVar), Lit>,
    /// A literal fixed to false (for degenerate cases like `x = y` with
    /// disjoint domains).
    false_lit: Option<Lit>,
}

impl Default for FdSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl FdSolver {
    /// Creates an empty solver.
    pub fn new() -> FdSolver {
        FdSolver {
            sat: SatSolver::new(),
            consts: Vec::new(),
            const_ids: HashMap::new(),
            vars: Vec::new(),
            eq_atoms: HashMap::new(),
            false_lit: None,
        }
    }

    /// Interns a constant by name, returning its id.
    pub fn constant(&mut self, name: &str) -> ConstId {
        if let Some(&c) = self.const_ids.get(name) {
            return c;
        }
        let c = ConstId(self.consts.len() as u32);
        self.consts.push(name.to_string());
        self.const_ids.insert(name.to_string(), c);
        c
    }

    /// The name of an interned constant.
    pub fn const_name(&self, c: ConstId) -> &str {
        &self.consts[c.0 as usize]
    }

    /// Declares a variable with the given (deduplicated) domain and posts
    /// its exactly-one constraint.
    pub fn new_var(&mut self, name: &str, domain: &[ConstId]) -> Result<FdVar, FdError> {
        let mut dom: Vec<ConstId> = Vec::with_capacity(domain.len());
        for &c in domain {
            if (c.0 as usize) >= self.consts.len() {
                return Err(FdError::UnknownConst(c));
            }
            if !dom.contains(&c) {
                dom.push(c);
            }
        }
        if dom.is_empty() {
            return Err(FdError::EmptyDomain(name.to_string()));
        }
        let atoms: Vec<Lit> = dom.iter().map(|_| Lit::pos(self.sat.new_var())).collect();
        // At least one…
        self.sat.add_clause(&atoms);
        // …and at most one (pairwise; domains here are small).
        for i in 0..atoms.len() {
            for j in (i + 1)..atoms.len() {
                self.sat.add_clause(&[!atoms[i], !atoms[j]]);
            }
        }
        let by_const = dom.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let v = FdVar(self.vars.len() as u32);
        self.vars.push(VarInfo {
            domain: dom,
            atoms,
            by_const,
        });
        Ok(v)
    }

    /// The declared domain of `x`.
    pub fn domain(&self, x: FdVar) -> &[ConstId] {
        &self.vars[x.0 as usize].domain
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Natural logarithm of the size of the raw search space (the product
    /// of domain sizes) — the paper's "Search Space" column.
    pub fn ln_search_space(&self) -> f64 {
        self.vars.iter().map(|v| (v.domain.len() as f64).ln()).sum()
    }

    fn the_false_lit(&mut self) -> Lit {
        match self.false_lit {
            Some(l) => l,
            None => {
                let v = self.sat.new_var();
                let l = Lit::pos(v);
                self.sat.add_clause(&[!l]);
                self.false_lit = Some(l);
                l
            }
        }
    }

    /// The SAT literal for `x = c`; false-literal if `c ∉ dom(x)`.
    fn eq_const_lit(&mut self, x: FdVar, c: ConstId) -> Result<Lit, FdError> {
        if (x.0 as usize) >= self.vars.len() {
            return Err(FdError::UnknownVar(x));
        }
        if (c.0 as usize) >= self.consts.len() {
            return Err(FdError::UnknownConst(c));
        }
        let info = &self.vars[x.0 as usize];
        match info.by_const.get(&c) {
            Some(&k) => Ok(info.atoms[k]),
            None => Ok(self.the_false_lit()),
        }
    }

    /// The SAT literal for `x = y` (lazily Tseitin-defined).
    fn var_eq_lit(&mut self, x: FdVar, y: FdVar) -> Result<Lit, FdError> {
        if (x.0 as usize) >= self.vars.len() {
            return Err(FdError::UnknownVar(x));
        }
        if (y.0 as usize) >= self.vars.len() {
            return Err(FdError::UnknownVar(y));
        }
        if x == y {
            // x = x is true: encode as ¬false.
            return Ok(!self.the_false_lit());
        }
        let key = if x.0 < y.0 { (x, y) } else { (y, x) };
        if let Some(&l) = self.eq_atoms.get(&key) {
            return Ok(l);
        }
        let shared: Vec<ConstId> = self.vars[key.0 .0 as usize]
            .domain
            .iter()
            .copied()
            .filter(|c| self.vars[key.1 .0 as usize].by_const.contains_key(c))
            .collect();
        let e = if shared.is_empty() {
            self.the_false_lit()
        } else {
            let e = Lit::pos(self.sat.new_var());
            let mut any: Vec<Lit> = vec![!e];
            for c in shared {
                let ax = self.eq_const_lit(key.0, c)?;
                let ay = self.eq_const_lit(key.1, c)?;
                let p = Lit::pos(self.sat.new_var());
                // p ↔ (ax ∧ ay)
                self.sat.add_clause(&[!p, ax]);
                self.sat.add_clause(&[!p, ay]);
                self.sat.add_clause(&[!ax, !ay, p]);
                // p → e
                self.sat.add_clause(&[!p, e]);
                any.push(p);
            }
            // e → ⋁ p
            self.sat.add_clause(&any);
            e
        };
        self.eq_atoms.insert(key, e);
        Ok(e)
    }

    fn lower(&mut self, lit: FdLit) -> Result<Lit, FdError> {
        Ok(match lit {
            FdLit::Eq(x, c) => self.eq_const_lit(x, c)?,
            FdLit::Ne(x, c) => !self.eq_const_lit(x, c)?,
            FdLit::VarEq(x, y) => self.var_eq_lit(x, y)?,
            FdLit::VarNe(x, y) => !self.var_eq_lit(x, y)?,
        })
    }

    /// Adds a clause (disjunction of FD literals).
    pub fn add_clause(&mut self, clause: &[FdLit]) -> Result<(), FdError> {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&l| self.lower(l))
            .collect::<Result<_, _>>()?;
        self.sat.add_clause(&lits);
        Ok(())
    }

    /// Blocks a full conjunction: adds `¬(l1 ∧ … ∧ ln)` as one clause.
    pub fn block(&mut self, conj: &[FdLit]) -> Result<(), FdError> {
        let negated: Vec<FdLit> = conj.iter().map(|l| l.negate()).collect();
        self.add_clause(&negated)
    }

    /// Solves; returns a model or `None` when unsatisfiable.
    pub fn solve(&mut self) -> Option<FdModel> {
        if !self.sat.solve() {
            return None;
        }
        let values = self
            .vars
            .iter()
            .map(|info| {
                let k = info
                    .atoms
                    .iter()
                    .position(|&a| {
                        let v = self.sat.model_value(a.var());
                        if a.is_neg() {
                            !v
                        } else {
                            v
                        }
                    })
                    .expect("exactly-one constraint guarantees a true atom");
                info.domain[k]
            })
            .collect();
        Some(FdModel { values })
    }

    /// Underlying SAT statistics.
    pub fn sat_stats(&self) -> crate::sat::SatStats {
        self.sat.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FdSolver, Vec<ConstId>) {
        let mut s = FdSolver::new();
        let cs = ["a", "b", "c", "d"].iter().map(|n| s.constant(n)).collect();
        (s, cs)
    }

    #[test]
    fn exactly_one_semantics() {
        let (mut s, cs) = setup();
        let x = s.new_var("x", &[cs[0], cs[1], cs[2]]).unwrap();
        let m = s.solve().unwrap();
        assert!(s.domain(x).contains(&m.value(x)));
    }

    #[test]
    fn model_enumeration_counts_domain_product() {
        let (mut s, cs) = setup();
        let x = s.new_var("x", &[cs[0], cs[1]]).unwrap();
        let y = s.new_var("y", &[cs[0], cs[1], cs[2]]).unwrap();
        let mut n = 0;
        while let Some(m) = s.solve() {
            n += 1;
            assert!(n <= 6);
            s.block(&[FdLit::Eq(x, m.value(x)), FdLit::Eq(y, m.value(y))])
                .unwrap();
        }
        assert_eq!(n, 6);
    }

    #[test]
    fn var_equality_atoms() {
        let (mut s, cs) = setup();
        let x = s.new_var("x", &[cs[0], cs[1]]).unwrap();
        let y = s.new_var("y", &[cs[1], cs[2]]).unwrap();
        s.add_clause(&[FdLit::VarEq(x, y)]).unwrap();
        let m = s.solve().unwrap();
        assert_eq!(m.value(x), cs[1]);
        assert_eq!(m.value(y), cs[1]);
    }

    #[test]
    fn var_disequality() {
        let (mut s, cs) = setup();
        let x = s.new_var("x", &[cs[0]]).unwrap();
        let y = s.new_var("y", &[cs[0], cs[1]]).unwrap();
        s.add_clause(&[FdLit::VarNe(x, y)]).unwrap();
        let m = s.solve().unwrap();
        assert_eq!(m.value(y), cs[1]);
    }

    #[test]
    fn disjoint_domains_make_equality_false() {
        let (mut s, cs) = setup();
        let x = s.new_var("x", &[cs[0]]).unwrap();
        let y = s.new_var("y", &[cs[1]]).unwrap();
        s.add_clause(&[FdLit::VarEq(x, y)]).unwrap();
        assert!(s.solve().is_none());
        // But x ≠ y alone is fine.
        let mut s2 = FdSolver::new();
        let a = s2.constant("a");
        let b = s2.constant("b");
        let x = s2.new_var("x", &[a]).unwrap();
        let y = s2.new_var("y", &[b]).unwrap();
        s2.add_clause(&[FdLit::VarNe(x, y)]).unwrap();
        assert!(s2.solve().is_some());
    }

    #[test]
    fn eq_with_out_of_domain_constant_is_false() {
        let (mut s, cs) = setup();
        let x = s.new_var("x", &[cs[0], cs[1]]).unwrap();
        s.add_clause(&[FdLit::Eq(x, cs[3])]).unwrap();
        assert!(s.solve().is_none());
    }

    #[test]
    fn self_equality_is_true() {
        let (mut s, cs) = setup();
        let x = s.new_var("x", &[cs[0], cs[1]]).unwrap();
        s.add_clause(&[FdLit::VarEq(x, x)]).unwrap();
        assert!(s.solve().is_some());
        s.add_clause(&[FdLit::VarNe(x, x)]).unwrap();
        assert!(s.solve().is_none());
    }

    #[test]
    fn blocking_clause_removes_exactly_matching_models() {
        let (mut s, cs) = setup();
        let x = s.new_var("x", &[cs[0], cs[1]]).unwrap();
        let y = s.new_var("y", &[cs[0], cs[1]]).unwrap();
        // Block the "equal" models: remaining models must differ.
        s.block(&[FdLit::VarEq(x, y)]).unwrap();
        let mut seen = vec![];
        while let Some(m) = s.solve() {
            assert_ne!(m.value(x), m.value(y));
            seen.push((m.value(x), m.value(y)));
            s.block(&[FdLit::Eq(x, m.value(x)), FdLit::Eq(y, m.value(y))])
                .unwrap();
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn empty_domain_rejected() {
        let mut s = FdSolver::new();
        assert!(matches!(s.new_var("x", &[]), Err(FdError::EmptyDomain(_))));
    }

    #[test]
    fn interning_is_stable() {
        let mut s = FdSolver::new();
        let a1 = s.constant("a");
        let a2 = s.constant("a");
        assert_eq!(a1, a2);
        assert_eq!(s.const_name(a1), "a");
    }

    #[test]
    fn ln_search_space() {
        let (mut s, cs) = setup();
        s.new_var("x", &[cs[0], cs[1]]).unwrap();
        s.new_var("y", &[cs[0], cs[1], cs[2]]).unwrap();
        let expect = (2f64).ln() + (3f64).ln();
        assert!((s.ln_search_space() - expect).abs() < 1e-12);
    }

    #[test]
    fn model_satisfies_reporting_helpers() {
        let (mut s, cs) = setup();
        let x = s.new_var("x", &[cs[0]]).unwrap();
        let y = s.new_var("y", &[cs[1]]).unwrap();
        let m = s.solve().unwrap();
        assert!(m.satisfies_lit(FdLit::Eq(x, cs[0])));
        assert!(m.satisfies_lit(FdLit::VarNe(x, y)));
        assert!(m.satisfies_clause(&[FdLit::Eq(x, cs[1]), FdLit::Ne(y, cs[0])]));
        assert!(!m.satisfies_clause(&[FdLit::VarEq(x, y)]));
    }
}
