//! Property-based tests for the prover.
//!
//! * **Propositional completeness**: over pure propositional formulas the
//!   DPLL core is a decision procedure, so `prove` must agree exactly
//!   with brute-force validity checking.
//! * **Arithmetic soundness**: if Fourier–Motzkin declares a constraint
//!   system infeasible, no integer point satisfies it; and any integer
//!   point found by brute force forces feasibility.
//! * **Pruning is invisible**: on small ground problems mixing
//!   disjunctive equalities, uninterpreted functions, predicates and
//!   inequalities, the default tuning (EUF checks before every decision)
//!   and the legacy tuning (theory checks at full leaves only) reach the
//!   same outcome and the same countermodel, and the default never
//!   decides more often.

use proptest::prelude::*;
use stq_logic::arith::{feasible, Constraint, LinExpr};
use stq_logic::rat::Rat;
use stq_logic::solver::{Outcome, Problem, SolverTuning};
use stq_logic::term::{Formula, Term};

// ----- propositional -----

#[derive(Clone, Debug)]
enum P {
    Atom(u8),
    Not(Box<P>),
    And(Box<P>, Box<P>),
    Or(Box<P>, Box<P>),
    Implies(Box<P>, Box<P>),
}

fn p_strategy() -> impl Strategy<Value = P> {
    let leaf = (0u8..4).prop_map(P::Atom);
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| P::Not(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| P::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| P::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| P::Implies(Box::new(a), Box::new(b))),
        ]
    })
}

fn eval(p: &P, world: u8) -> bool {
    match p {
        P::Atom(i) => world & (1 << i) != 0,
        P::Not(a) => !eval(a, world),
        P::And(a, b) => eval(a, world) && eval(b, world),
        P::Or(a, b) => eval(a, world) || eval(b, world),
        P::Implies(a, b) => !eval(a, world) || eval(b, world),
    }
}

fn to_formula(p: &P) -> Formula {
    match p {
        P::Atom(i) => Formula::pred(&format!("p{i}"), vec![]),
        P::Not(a) => to_formula(a).negate(),
        P::And(a, b) => Formula::and(vec![to_formula(a), to_formula(b)]),
        P::Or(a, b) => Formula::or(vec![to_formula(a), to_formula(b)]),
        P::Implies(a, b) => to_formula(a).implies(to_formula(b)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn propositional_prover_matches_truth_tables(p in p_strategy()) {
        let valid = (0u8..16).all(|w| eval(&p, w));
        let mut problem = Problem::new();
        problem.goal(to_formula(&p));
        prop_assert_eq!(
            problem.prove().is_proved(),
            valid,
            "formula {:?}", p
        );
    }

    #[test]
    fn entailment_matches_truth_tables(h in p_strategy(), g in p_strategy()) {
        let entails = (0u8..16).all(|w| !eval(&h, w) || eval(&g, w));
        let mut problem = Problem::new();
        problem.hypothesis(to_formula(&h));
        problem.goal(to_formula(&g));
        prop_assert_eq!(problem.prove().is_proved(), entails);
    }
}

// ----- linear arithmetic -----

#[derive(Clone, Copy, Debug)]
struct RawConstraint {
    /// coefficients of x and y plus constant: cx*x + cy*y + k REL 0
    cx: i8,
    cy: i8,
    k: i8,
    strict: bool,
}

fn constraint_strategy() -> impl Strategy<Value = RawConstraint> {
    (-3i8..=3, -3i8..=3, -6i8..=6, any::<bool>()).prop_map(|(cx, cy, k, strict)| RawConstraint {
        cx,
        cy,
        k,
        strict,
    })
}

fn to_lin(c: RawConstraint) -> Constraint {
    let mut e = LinExpr::constant(Rat::int(i128::from(c.k)));
    e.add_term(0, Rat::int(i128::from(c.cx)));
    e.add_term(1, Rat::int(i128::from(c.cy)));
    if c.strict {
        Constraint::lt0(e)
    } else {
        Constraint::le0(e)
    }
}

fn holds(c: RawConstraint, x: i64, y: i64) -> bool {
    let v = i64::from(c.cx) * x + i64::from(c.cy) * y + i64::from(c.k);
    if c.strict {
        v < 0
    } else {
        v <= 0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn infeasible_systems_have_no_integer_points(
        cs in prop::collection::vec(constraint_strategy(), 1..6)
    ) {
        let lins: Vec<Constraint> = cs.iter().copied().map(to_lin).collect();
        let answer = feasible(&lins);
        // Brute force over a grid comfortably containing any solution of
        // such small systems.
        let mut found = None;
        'search: for x in -25i64..=25 {
            for y in -25i64..=25 {
                if cs.iter().all(|&c| holds(c, x, y)) {
                    found = Some((x, y));
                    break 'search;
                }
            }
        }
        if let Some((x, y)) = found {
            prop_assert!(answer, "({x},{y}) satisfies the system but FM says infeasible");
        }
        // The converse: FM-infeasible must mean no grid point.
        if !answer {
            prop_assert!(found.is_none());
        }
    }

    #[test]
    fn arith_prover_agrees_with_evaluation(
        a in -10i64..=10, b in -10i64..=10, c in -10i64..=10
    ) {
        // a ≤ x ∧ x ≤ b ⊢ x ≤ c holds iff (a > b) ∨ (b ≤ c).
        let x = Term::cnst("x");
        let expected = a > b || b <= c;
        let mut problem = Problem::new();
        problem.hypothesis(Term::int(a).le(&x));
        problem.hypothesis(x.le(&Term::int(b)));
        problem.goal(x.le(&Term::int(c)));
        prop_assert_eq!(problem.prove().is_proved(), expected);
    }
}

// ----- EUF pruning: default vs legacy tuning -----

/// One ground literal over a small term universe: `kind` picks
/// equality, `≤`, `<` or a unary predicate; `neg` negates it.
#[derive(Clone, Copy, Debug)]
struct RawLit {
    kind: u8,
    lhs: u8,
    rhs: u8,
    neg: bool,
}

fn lit_strategy() -> impl Strategy<Value = RawLit> {
    (0u8..4, 0u8..9, 0u8..9, any::<bool>()).prop_map(|(kind, lhs, rhs, neg)| RawLit {
        kind,
        lhs,
        rhs,
        neg,
    })
}

/// Constants, applications of `f`, sums, and integer literals, so
/// congruence, arithmetic and their interaction all show up.
fn ground_term(i: u8) -> Term {
    let c = |n: &str| Term::cnst(n);
    let f = |t: Term| Term::app("f", vec![t]);
    match i {
        0 => c("a"),
        1 => c("b"),
        2 => c("c"),
        3 => f(c("a")),
        4 => f(c("b")),
        5 => f(f(c("a"))),
        6 => c("a").add(&Term::int(1)),
        7 => Term::int(0),
        _ => Term::int(1),
    }
}

fn lit_formula(l: RawLit) -> Formula {
    let (a, b) = (ground_term(l.lhs), ground_term(l.rhs));
    let f = match l.kind {
        0 => a.eq(&b),
        1 => a.le(&b),
        2 => a.lt(&b),
        _ => Formula::pred("p", vec![a]),
    };
    if l.neg {
        f.negate()
    } else {
        f
    }
}

fn clause_formula(lits: &[RawLit]) -> Formula {
    Formula::or(lits.iter().copied().map(lit_formula).collect())
}

fn outcome_key(o: &Outcome) -> String {
    match o {
        Outcome::Proved { .. } => "proved".into(),
        Outcome::Refuted { model, .. } => format!("refuted:{model:?}"),
        Outcome::ResourceOut { resource, .. } => format!("out:{resource:?}"),
        Outcome::Crashed { message, .. } => format!("crashed:{message}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pruned_and_legacy_search_agree_on_ground_problems(
        hyps in prop::collection::vec(prop::collection::vec(lit_strategy(), 1..4), 1..6),
        goal in prop::collection::vec(lit_strategy(), 1..3)
    ) {
        let mut problem = Problem::new();
        for h in &hyps {
            problem.hypothesis(clause_formula(h));
        }
        problem.goal(clause_formula(&goal));
        let pruned = problem.prove();
        problem.tuning = SolverTuning::legacy();
        let legacy = problem.prove();
        prop_assert_eq!(outcome_key(&pruned), outcome_key(&legacy), "{:?} / {:?}", hyps, goal);
        let (sp, sl) = (pruned.stats(), legacy.stats());
        prop_assert!(sp.decisions <= sl.decisions, "{:?} vs {:?}", sp, sl);
        prop_assert!(sp.conflicts <= sl.conflicts, "{:?} vs {:?}", sp, sl);
        prop_assert_eq!(sp.rounds, sl.rounds);
        prop_assert_eq!(sp.clauses, sl.clauses);
    }
}
