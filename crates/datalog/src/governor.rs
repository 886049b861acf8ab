//! Cooperative resource governance for evaluation: deadlines, derived-fact
//! budgets, fixpoint-round caps, and external cancellation.
//!
//! A [`Governor`] is a small shared handle (clones share one trip state)
//! that the engine polls cooperatively — at round boundaries, at coarse
//! strides inside the join loops, and per unique fact during absorption.
//! When any limit trips, the evaluation unwinds with a typed
//! [`EvalError`] instead of hanging or exhausting memory; pool jobs of an
//! in-flight round observe the trip at their next stride and drain
//! promptly, so workers are never left spinning on a doomed candidate.
//!
//! Determinism contract: limits only ever *abort* an evaluation — they
//! never alter the facts a successful evaluation derives or their order.
//! The fact budget is charged on the sequential absorb path (unique
//! inserts in fixed job order), so whether it trips is identical at every
//! thread count. Deadline and cancellation are timing-dependent by
//! nature, but a trip always surfaces as an error, never as partial
//! output.
//!
//! A governor is intended to scope **one** evaluation: counters are
//! monotone and never reset. To share one wall-clock deadline across many
//! candidate evaluations (the synthesis loop), construct a fresh governor
//! per evaluation from the same [`ResourceLimits::deadline`] instant.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::eval::EvalError;

/// Limits enforced by a [`Governor`]. `None` fields are unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Wall-clock instant after which evaluation aborts with
    /// [`EvalError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// Maximum number of *unique* derived facts before
    /// [`EvalError::FactBudgetExceeded`].
    pub fact_budget: Option<u64>,
    /// Maximum number of evaluation rounds (naive and semi-naive, summed
    /// across strata) before [`EvalError::RoundCapExceeded`]. A cap of 1
    /// admits only the initial naive round.
    pub round_cap: Option<u64>,
}

impl ResourceLimits {
    /// No limits at all (a governor over these only reacts to
    /// [`Governor::cancel`]).
    pub fn none() -> ResourceLimits {
        ResourceLimits::default()
    }

    /// Sets the deadline `timeout` from now. A timeout too long for an
    /// `Instant` to represent (such as `Duration::MAX`) means no deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> ResourceLimits {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> ResourceLimits {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the unique-derived-fact budget.
    pub fn with_fact_budget(mut self, budget: u64) -> ResourceLimits {
        self.fact_budget = Some(budget);
        self
    }

    /// Sets the evaluation-round cap.
    pub fn with_round_cap(mut self, cap: u64) -> ResourceLimits {
        self.round_cap = Some(cap);
        self
    }

    /// `true` when every limit is absent.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.fact_budget.is_none() && self.round_cap.is_none()
    }
}

// Trip reason codes. The first trip wins (compare-exchange from NONE), so
// an evaluation reports one stable cause even when, say, a cancel and a
// deadline race.
const TRIP_NONE: u8 = 0;
const TRIP_CANCELLED: u8 = 1;
const TRIP_DEADLINE: u8 = 2;
const TRIP_BUDGET: u8 = 3;
const TRIP_ROUNDS: u8 = 4;

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    fact_budget: Option<u64>,
    round_cap: Option<u64>,
    facts: AtomicU64,
    rounds: AtomicU64,
    tripped: AtomicU8,
}

/// A shared cancellation/deadline/budget handle for one evaluation.
///
/// Cloning is cheap and shares the trip state, so a caller can keep a
/// clone to [`cancel`](Governor::cancel) an evaluation running on another
/// thread.
///
/// ```
/// use std::time::Duration;
/// use dynamite_datalog::{EvalError, Evaluator, Governor, Program, ResourceLimits};
/// use dynamite_instance::Database;
///
/// # dynamite_datalog::fault::reset(); // keep CI's env-armed faults out
/// let mut edb = Database::new();
/// edb.insert("Edge", vec![1.into(), 2.into()]);
/// edb.insert("Edge", vec![2.into(), 1.into()]);
/// let ctx = Evaluator::new(edb);
/// let p = Program::parse(
///     "Path(x, y) :- Edge(x, y).
///      Path(x, z) :- Path(x, y), Edge(y, z).",
/// )
/// .unwrap();
///
/// // Within budget: identical to ungoverned evaluation.
/// let gov = Governor::new(ResourceLimits::none().with_fact_budget(1_000));
/// assert_eq!(ctx.eval_governed(&p, &gov).unwrap(), ctx.eval(&p).unwrap());
///
/// // One-round cap: the recursive fixpoint trips with a typed error.
/// let gov = Governor::new(ResourceLimits::none().with_round_cap(1));
/// assert_eq!(
///     ctx.eval_governed(&p, &gov).unwrap_err(),
///     EvalError::RoundCapExceeded { cap: 1 },
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Governor {
    inner: Arc<Inner>,
}

impl Governor {
    /// Creates a governor enforcing `limits`.
    pub fn new(limits: ResourceLimits) -> Governor {
        Governor {
            inner: Arc::new(Inner {
                deadline: limits.deadline,
                fact_budget: limits.fact_budget,
                round_cap: limits.round_cap,
                facts: AtomicU64::new(0),
                rounds: AtomicU64::new(0),
                tripped: AtomicU8::new(TRIP_NONE),
            }),
        }
    }

    /// A governor with no limits; only [`cancel`](Governor::cancel) can
    /// trip it.
    pub fn unlimited() -> Governor {
        Governor::new(ResourceLimits::none())
    }

    /// Requests cooperative cancellation: the governed evaluation aborts
    /// with [`EvalError::Cancelled`] at its next check.
    pub fn cancel(&self) {
        self.trip(TRIP_CANCELLED);
    }

    fn trip(&self, reason: u8) {
        let _ = self.inner.tripped.compare_exchange(
            TRIP_NONE,
            reason,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Forces a fact-budget trip (the `budget` fault-injection point).
    pub(crate) fn trip_fact_budget(&self) {
        self.trip(TRIP_BUDGET);
    }

    /// Cheap stop poll for worker-job strides: `true` once the governor
    /// has tripped. Also the point where an elapsed deadline is noticed
    /// and recorded. Safe to call concurrently from many threads.
    pub fn poll(&self) -> bool {
        if self.inner.tripped.load(Ordering::Acquire) != TRIP_NONE {
            return true;
        }
        if let Some(d) = self.inner.deadline {
            if Instant::now() >= d {
                self.trip(TRIP_DEADLINE);
                return true;
            }
        }
        false
    }

    /// Round-boundary check: `Err` with the typed trip cause once any
    /// limit has tripped.
    pub fn check(&self) -> Result<(), EvalError> {
        if self.poll() {
            Err(self.trip_error().expect("poll reported a trip"))
        } else {
            Ok(())
        }
    }

    /// Charges one evaluation round against the round cap (and runs a
    /// full [`check`](Governor::check)).
    pub fn begin_round(&self) -> Result<(), EvalError> {
        self.check()?;
        let n = self.inner.rounds.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(cap) = self.inner.round_cap {
            if n > cap {
                self.trip(TRIP_ROUNDS);
                return Err(self.trip_error().expect("just tripped"));
            }
        }
        Ok(())
    }

    /// Charges one unique derived fact against the budget. Called from
    /// the sequential absorb path only, so the trip point is identical at
    /// every thread count.
    pub fn count_fact(&self) -> Result<(), EvalError> {
        if let Some(e) = self.trip_error() {
            return Err(e);
        }
        let n = self.inner.facts.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(budget) = self.inner.fact_budget {
            if n > budget {
                self.trip(TRIP_BUDGET);
                return Err(self.trip_error().expect("just tripped"));
            }
        }
        Ok(())
    }

    /// The typed error for the recorded trip cause, if any.
    pub fn trip_error(&self) -> Option<EvalError> {
        match self.inner.tripped.load(Ordering::Acquire) {
            TRIP_CANCELLED => Some(EvalError::Cancelled),
            TRIP_DEADLINE => Some(EvalError::DeadlineExceeded),
            TRIP_BUDGET => Some(EvalError::FactBudgetExceeded {
                budget: self
                    .inner
                    .fact_budget
                    .unwrap_or_else(|| self.inner.facts.load(Ordering::Relaxed)),
            }),
            TRIP_ROUNDS => Some(EvalError::RoundCapExceeded {
                cap: self
                    .inner
                    .round_cap
                    .unwrap_or_else(|| self.inner.rounds.load(Ordering::Relaxed)),
            }),
            _ => None,
        }
    }

    /// `true` once any limit (or an external cancel) has tripped.
    pub fn is_tripped(&self) -> bool {
        self.inner.tripped.load(Ordering::Acquire) != TRIP_NONE
    }

    /// Unique derived facts charged so far.
    pub fn facts_counted(&self) -> u64 {
        self.inner.facts.load(Ordering::Relaxed)
    }

    /// Evaluation rounds charged so far.
    pub fn rounds_started(&self) -> u64 {
        self.inner.rounds.load(Ordering::Relaxed)
    }
}

/// The `DYNAMITE_FACT_BUDGET` environment override, if set to a valid
/// positive integer (anything else — unset, unparseable, zero — is
/// ignored rather than silently clobbering an explicit request). Read
/// once per process, mirroring `DYNAMITE_THREADS`.
fn env_fact_budget() -> Option<u64> {
    static ENV: OnceLock<Option<u64>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("DYNAMITE_FACT_BUDGET")
            .ok()?
            .trim()
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
    })
}

/// Resolves a configured per-evaluation fact budget: a *valid*
/// `DYNAMITE_FACT_BUDGET` environment override wins, then the explicit
/// request, then unlimited.
pub fn resolve_fact_budget(requested: Option<u64>) -> Option<u64> {
    env_fact_budget().or(requested)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_trips_on_counters() {
        let g = Governor::unlimited();
        for _ in 0..10_000 {
            g.count_fact().unwrap();
        }
        for _ in 0..100 {
            g.begin_round().unwrap();
        }
        assert!(!g.is_tripped());
        assert!(g.check().is_ok());
        assert_eq!(g.facts_counted(), 10_000);
        assert_eq!(g.rounds_started(), 100);
    }

    #[test]
    fn an_unrepresentable_timeout_means_no_deadline() {
        assert!(ResourceLimits::none()
            .with_timeout(Duration::MAX)
            .is_unlimited());
        assert!(ResourceLimits::none()
            .with_timeout(Duration::from_secs(1))
            .deadline
            .is_some());
    }

    #[test]
    fn fact_budget_trips_at_the_boundary() {
        let g = Governor::new(ResourceLimits::none().with_fact_budget(3));
        for _ in 0..3 {
            g.count_fact().unwrap();
        }
        assert_eq!(
            g.count_fact().unwrap_err(),
            EvalError::FactBudgetExceeded { budget: 3 }
        );
        // Tripped state is sticky.
        assert_eq!(
            g.check().unwrap_err(),
            EvalError::FactBudgetExceeded { budget: 3 }
        );
    }

    #[test]
    fn round_cap_trips_past_the_cap() {
        let g = Governor::new(ResourceLimits::none().with_round_cap(2));
        g.begin_round().unwrap();
        g.begin_round().unwrap();
        assert_eq!(
            g.begin_round().unwrap_err(),
            EvalError::RoundCapExceeded { cap: 2 }
        );
    }

    #[test]
    fn elapsed_deadline_trips_on_poll() {
        let g = Governor::new(ResourceLimits {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..ResourceLimits::default()
        });
        assert!(g.poll());
        assert_eq!(g.check().unwrap_err(), EvalError::DeadlineExceeded);
    }

    #[test]
    fn first_trip_cause_wins() {
        let g = Governor::new(ResourceLimits::none().with_fact_budget(1));
        g.count_fact().unwrap();
        assert!(g.count_fact().is_err());
        // A later cancel does not overwrite the recorded cause.
        g.cancel();
        assert_eq!(
            g.trip_error(),
            Some(EvalError::FactBudgetExceeded { budget: 1 })
        );
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let g = Governor::unlimited();
        let h = g.clone();
        h.cancel();
        assert_eq!(g.check().unwrap_err(), EvalError::Cancelled);
    }

    #[test]
    fn resolve_fact_budget_passes_requests_through() {
        // The test environment does not set DYNAMITE_FACT_BUDGET for this
        // binary's tier-1 run; under the CI fault leg it does, and then
        // the env value must win.
        match std::env::var("DYNAMITE_FACT_BUDGET")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok().filter(|&n| n >= 1))
        {
            Some(env) => {
                assert_eq!(resolve_fact_budget(Some(7)), Some(env));
                assert_eq!(resolve_fact_budget(None), Some(env));
            }
            None => {
                assert_eq!(resolve_fact_budget(Some(7)), Some(7));
                assert_eq!(resolve_fact_budget(None), None);
            }
        }
    }
}
