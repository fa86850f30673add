//! The refutation-based prover: DPLL case splitting over the clausal
//! structure, Nelson–Oppen theory checks (congruence closure + linear
//! arithmetic) at the leaves, congruence-closure checks before every
//! decision, and rounds of E-matching instantiation.
//!
//! To prove `axioms, hypotheses ⊢ goal` the solver asserts the axioms and
//! hypotheses together with the negated goal and searches for a
//! theory-consistent assignment. Universal quantifiers become proxy atoms
//! ([`crate::pre`]); whenever the search finds a candidate model, every
//! quantifier asserted true in it is instantiated against the current
//! ground terms, and the search repeats with the new clauses. The
//! obligation is proved when the search space is exhausted.
//!
//! Every attempt runs under a [`Budget`] and reports [`ProverStats`]
//! telemetry (see [`crate::stats`]); an attempt that hits a limit
//! terminates with [`Outcome::ResourceOut`] instead of diverging.
//!
//! # Cold-path performance
//!
//! Four mechanisms make cold (cache-miss) proving cheap, all of them
//! observable in [`ProverStats`] and disengaged by
//! [`SolverTuning::legacy`] for ablation:
//!
//! * **Shared axiomatization** ([`crate::theory`]): a [`Theory`] attached
//!   via [`Problem::set_theory`] is clausified once; each attempt starts
//!   from the prepared core instead of re-running the front end on every
//!   background axiom (`theory_reuses` vs `theory_preps`).
//! * **Hash-consed terms** ([`crate::arena`]): ground atom sides are
//!   interned into a per-attempt arena, so the EUF leaf checks and
//!   E-matching rounds intern by id lookup instead of recursive tree
//!   walks (`interned_terms` / `intern_hits`).
//! * **EUF pruning** (with hash-consing): after unit propagation and
//!   before each decision, the assigned equalities, disequalities and
//!   predicate facts are asserted on the round's template e-graph, and
//!   the search backtracks at the first congruence conflict instead of
//!   enumerating leaves that must all fail (`decisions`, `conflicts`).
//! * **Per-worker solver reuse** ([`SolverWorker`]): a worker keeps one
//!   theory-loaded core alive across obligations, rolling it back to the
//!   shared-theory watermark between attempts instead of rebuilding it.
//!
//! Tuning never changes verdicts. Congruence closure is monotone, so a
//! node that fails the EUF check has no theory-consistent leaf below it:
//! the pruned and the legacy search reach the same first consistent leaf
//! each round, and therefore the same countermodel, instantiations and
//! clauses. The pruned search only makes fewer decisions, which the
//! cross-tuning determinism tests pin down obligation by obligation.

use crate::arena::{Head, TermArena, TermId};
use crate::arith::{entails_eq0_counted, feasible_counted, Constraint, LinExpr};
use crate::ematch::{match_trigger_counted, Binding};
use crate::euf::{self, Egraph};
use crate::fault::{self, FaultKind};
use crate::pre::{Atom, Clause, Clausifier, Lit};
use crate::rat::Rat;
use crate::stats::{Budget, ProverStats, Resource};
use crate::term::{Formula, Term};
use crate::theory::{ground_free_vars, CachedAtom, SolveCore, Theory};
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use stq_util::{CancelToken, Symbol};

pub use crate::stats::{ProverConfig, Stats};

/// The result of a proof attempt: proved, refuted, out of budget, or
/// (under [`Problem::prove_isolated`]) a contained crash.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The obligation is valid: every case was refuted.
    Proved {
        /// Work counters.
        stats: ProverStats,
    },
    /// The search saturated without refuting the negated obligation:
    /// instantiation produced nothing new and a theory-consistent
    /// assignment survives. `model` holds a human-readable candidate
    /// countermodel — the literal assignment of the surviving branch —
    /// useful for diagnosing unsound qualifiers.
    Refuted {
        /// Pretty-printed literals of the surviving assignment.
        model: Vec<String>,
        /// Work counters.
        stats: ProverStats,
    },
    /// A [`Budget`] limit tripped before the search could conclude either
    /// way. The obligation might be provable with a larger budget.
    ResourceOut {
        /// The budgeted resource that ran out.
        resource: Resource,
        /// Work counters at the point the limit tripped.
        stats: ProverStats,
    },
    /// The proof attempt panicked (a prover bug, or an injected fault
    /// from [`crate::fault`]) and [`Problem::prove_isolated`] contained
    /// the crash. Says nothing about the obligation's validity.
    Crashed {
        /// The panic payload, when it was a string (the usual case).
        message: String,
        /// Work counters are lost when an attempt unwinds; always empty.
        stats: ProverStats,
    },
}

impl Outcome {
    /// True if the obligation was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, Outcome::Proved { .. })
    }

    /// True if the search saturated with a surviving candidate model.
    pub fn is_refuted(&self) -> bool {
        matches!(self, Outcome::Refuted { .. })
    }

    /// True if a budget limit tripped before a conclusion.
    pub fn is_resource_out(&self) -> bool {
        matches!(self, Outcome::ResourceOut { .. })
    }

    /// True if the attempt panicked and the crash was contained.
    pub fn is_crashed(&self) -> bool {
        matches!(self, Outcome::Crashed { .. })
    }

    /// The work counters.
    pub fn stats(&self) -> &ProverStats {
        match self {
            Outcome::Proved { stats }
            | Outcome::Refuted { stats, .. }
            | Outcome::ResourceOut { stats, .. }
            | Outcome::Crashed { stats, .. } => stats,
        }
    }

    fn stats_mut(&mut self) -> &mut ProverStats {
        match self {
            Outcome::Proved { stats }
            | Outcome::Refuted { stats, .. }
            | Outcome::ResourceOut { stats, .. }
            | Outcome::Crashed { stats, .. } => stats,
        }
    }

    /// The contained panic message, when the attempt crashed.
    pub fn crash_message(&self) -> Option<&str> {
        match self {
            Outcome::Crashed { message, .. } => Some(message),
            _ => None,
        }
    }

    /// The candidate countermodel, when the search saturated.
    pub fn model(&self) -> Option<&[String]> {
        match self {
            Outcome::Refuted { model, .. } => Some(model),
            _ => None,
        }
    }

    /// The exhausted resource, when a budget limit tripped.
    pub fn resource(&self) -> Option<Resource> {
        match self {
            Outcome::ResourceOut { resource, .. } => Some(*resource),
            _ => None,
        }
    }
}

/// Performance tuning knobs for the solver's cold path. Both default to
/// **on**; the ablation bench flips them off to measure each mechanism's
/// contribution. Tuning is deliberately excluded from obligation
/// fingerprints: it must never change a verdict, only the work profile.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SolverTuning {
    /// Start attempts from the prepared [`Theory`] core instead of
    /// re-clausifying the background axioms per attempt.
    pub share_theory: bool,
    /// Hash-cons ground terms in a per-attempt arena and run the EUF /
    /// E-matching hot loops over interned ids. Off, every search leaf
    /// re-interns `Box`ed term trees the way the seed prover did.
    pub hash_cons: bool,
}

impl Default for SolverTuning {
    fn default() -> SolverTuning {
        SolverTuning {
            share_theory: true,
            hash_cons: true,
        }
    }
}

impl SolverTuning {
    /// Every optimization disengaged — the seed prover's work profile,
    /// kept alive as the ablation baseline.
    pub fn legacy() -> SolverTuning {
        SolverTuning {
            share_theory: false,
            hash_cons: false,
        }
    }
}

/// A proof obligation: background axioms, hypotheses, and a goal.
///
/// See the crate-level documentation for a complete example.
#[derive(Clone, Debug, Default)]
pub struct Problem {
    axioms: Vec<Formula>,
    hyps: Vec<Formula>,
    goal: Option<Formula>,
    /// Shared preprocessed background axiomatization, logically
    /// equivalent to listing its axioms first via [`Problem::axiom`].
    theory: Option<Arc<Theory>>,
    /// Resource limits; adjust before calling [`Problem::prove`].
    pub config: Budget,
    /// Cold-path performance knobs; see [`SolverTuning`].
    pub tuning: SolverTuning,
    /// Cooperative cancellation handle, polled at round starts, every
    /// [`DEADLINE_CHECK_INTERVAL`] DPLL decisions, and between
    /// E-matching quantifiers. An external [`CancelToken::cancel`]
    /// yields [`Resource::Cancelled`]; a token deadline folds into the
    /// attempt's effective deadline and yields [`Resource::Time`], same
    /// as [`Budget::timeout`]. The default token never fires and is
    /// **not** part of the fingerprint: cancellation affects whether an
    /// attempt concludes, never what it concludes.
    pub cancel: CancelToken,
}

impl Problem {
    /// Creates an empty problem with default limits.
    pub fn new() -> Problem {
        Problem::default()
    }

    /// Sets the resource budget (chainable alternative to assigning
    /// [`Problem::config`] directly).
    pub fn budget(&mut self, budget: Budget) -> &mut Problem {
        self.config = budget;
        self
    }

    /// Adds a background axiom (typically universally quantified with
    /// explicit triggers).
    pub fn axiom(&mut self, f: Formula) -> &mut Problem {
        self.axioms.push(f);
        self
    }

    /// Adds a hypothesis.
    pub fn hypothesis(&mut self, f: Formula) -> &mut Problem {
        self.hyps.push(f);
        self
    }

    /// Sets the goal to prove.
    pub fn goal(&mut self, f: Formula) -> &mut Problem {
        self.goal = Some(f);
        self
    }

    /// Attaches a shared preprocessed background theory. Its axioms are
    /// asserted before this problem's own [`Problem::axiom`]s, and (with
    /// [`SolverTuning::share_theory`] on) the expensive clausification
    /// front end for them is skipped by starting from the theory's
    /// prepared core. The theory's axioms are part of the obligation
    /// fingerprint exactly as inline axioms would be.
    pub fn set_theory(&mut self, theory: Arc<Theory>) -> &mut Problem {
        self.theory = Some(theory);
        self
    }

    /// The attached shared theory, if any.
    pub fn theory(&self) -> Option<&Arc<Theory>> {
        self.theory.as_ref()
    }

    /// The obligation's stable structural fingerprint under this
    /// problem's base budget ([`Problem::config`]) and the given retry
    /// ladder — the proof-cache key. Symbol-independent (hashes symbol
    /// strings with de-Bruijn-indexed binders, never interner ids) and
    /// versioned by [`crate::fingerprint::PROVER_VERSION`]; see
    /// [`crate::fingerprint`]. Theory axioms hash exactly as inline
    /// axioms do, so moving axioms into a shared [`Theory`] preserves
    /// the key; [`SolverTuning`] is excluded because it cannot change
    /// outcomes.
    pub fn fingerprint(&self, retry: crate::stats::RetryPolicy) -> crate::fingerprint::Fingerprint {
        crate::fingerprint::fingerprint_obligation(
            self.theory.as_ref().map_or(&[][..], |t| t.axioms()),
            &self.axioms,
            &self.hyps,
            self.goal.as_ref(),
            &self.config,
            retry,
        )
    }

    /// Attempts to prove `axioms ∧ hypotheses ⇒ goal` within the
    /// configured [`Budget`], stamping wall-clock time into the stats.
    ///
    /// Each call counts as one *solver entry* for the thread's installed
    /// [`crate::fault::FaultPlan`] (if any), and honours any fault the
    /// plan schedules for it.
    ///
    /// # Panics
    ///
    /// Panics if no goal was set, or if the fault plan schedules a
    /// [`FaultKind::Panic`] or [`FaultKind::TheoryError`] at this entry.
    /// A [`FaultKind::Stall`] parks the call until [`Problem::cancel`]
    /// fires.
    /// Use [`Problem::prove_isolated`] to contain panics as
    /// [`Outcome::Crashed`].
    pub fn prove(&self) -> Outcome {
        self.timed_attempt(|deadline, theory_fault| self.solve_once(None, deadline, theory_fault))
    }

    /// As [`Problem::prove`], but contains any panic the attempt raises
    /// — from a prover bug, a library-misuse invariant, or an injected
    /// fault — and degrades it to [`Outcome::Crashed`] carrying the
    /// panic message. This is the entry point batch drivers should use:
    /// one crashing obligation must not take down its neighbours.
    pub fn prove_isolated(&self) -> Outcome {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.prove())) {
            Ok(outcome) => outcome,
            Err(payload) => Outcome::Crashed {
                message: panic_message(payload.as_ref()),
                stats: ProverStats::default(),
            },
        }
    }

    /// The per-attempt preamble every entry point shares: wall-clock
    /// stamping, effective-deadline computation, fault-plan entry
    /// accounting, and the pre-work cancellation check.
    fn timed_attempt(&self, body: impl FnOnce(Option<Instant>, Option<u64>) -> Outcome) -> Outcome {
        let start = Instant::now();
        // Effective deadline: the earlier of the per-attempt budget
        // timeout and the run-wide token deadline. Both report
        // `Resource::Time` — they are the same "wall clock ran out"
        // condition at different scopes.
        let deadline = match (self.config.timeout.map(|t| start + t), self.cancel.deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let (entry, fault) = fault::next_entry();
        let theory_fault = match fault {
            Some(FaultKind::Panic) => panic!("injected panic at solver entry {entry}"),
            Some(FaultKind::ResourceOut) => {
                return Outcome::ResourceOut {
                    resource: Resource::Injected,
                    stats: ProverStats {
                        wall: start.elapsed(),
                        ..ProverStats::default()
                    },
                };
            }
            Some(FaultKind::TheoryError) => Some(entry),
            Some(FaultKind::Stall) => {
                eprintln!("injected stall at solver entry {entry}: parked until cancelled");
                while !self.cancel.should_stop() {
                    std::thread::sleep(STALL_POLL);
                }
                None
            }
            None => None,
        };
        // A cancel observed before any work still reports as this
        // attempt's outcome: batch drivers treat it like any other
        // inconclusive result and never cache it.
        if self.cancel.is_cancelled() {
            return Outcome::ResourceOut {
                resource: Resource::Cancelled,
                stats: ProverStats {
                    wall: start.elapsed(),
                    ..ProverStats::default()
                },
            };
        }
        let mut outcome = body(deadline, theory_fault);
        outcome.stats_mut().wall = start.elapsed();
        outcome
    }

    /// One proof attempt over either a caller-provided reusable core
    /// (reset to its theory watermark first) or a core built here —
    /// cloned from the prepared theory when sharing is on, rebuilt from
    /// scratch otherwise.
    fn solve_once(
        &self,
        reuse: Option<&mut SolveCore>,
        deadline: Option<Instant>,
        theory_fault: Option<u64>,
    ) -> Outcome {
        if let Some(core) = reuse {
            // Reset up front rather than on completion: a panicking
            // attempt leaves the core dirty, and the rollback here heals
            // it before the next obligation runs.
            core.reset();
            let mut outcome = self.prove_with_core(core, deadline, theory_fault);
            outcome.stats_mut().theory_reuses = 1;
            return outcome;
        }
        if self.tuning.share_theory {
            if let Some(theory) = &self.theory {
                let mut core = theory.prepared_core();
                let mut outcome = self.prove_with_core(&mut core, deadline, theory_fault);
                outcome.stats_mut().theory_reuses = 1;
                return outcome;
            }
        }
        let mut core = self.fresh_core();
        let mut outcome = self.prove_with_core(&mut core, deadline, theory_fault);
        outcome.stats_mut().theory_preps = 1;
        outcome
    }

    /// Builds a core from scratch, re-asserting the theory axioms (the
    /// legacy per-attempt preprocessing path).
    fn fresh_core(&self) -> SolveCore {
        let mut core = SolveCore::empty();
        if let Some(theory) = &self.theory {
            for ax in theory.axioms() {
                core.assert_formula(&ground_free_vars(ax));
            }
        }
        core
    }

    fn prove_with_core(
        &self,
        core: &mut SolveCore,
        deadline: Option<Instant>,
        theory_fault: Option<u64>,
    ) -> Outcome {
        let goal = self.goal.clone().expect("no goal set on problem");
        // Free variables act as uninterpreted constants (proving a goal
        // with free variables proves it for arbitrary values).
        let goal = ground_free_vars(&goal);

        // Arena counters are monotone; the deltas over this attempt are
        // its interning telemetry.
        let arena_created0 = core.arena.created();
        let arena_hits0 = core.arena.hits();

        for ax in &self.axioms {
            core.assert_formula(&ground_free_vars(ax));
        }
        for h in &self.hyps {
            core.assert_formula(&ground_free_vars(h));
        }
        core.assert_formula(&goal.negate());

        let mut stats = ProverStats::default();
        // Instantiation dedup keys on hash-consed ids: atom tables only
        // grow within an attempt, so ids are stable across rounds.
        let mut instantiated: HashSet<(usize, Binding)> = HashSet::new();
        // Instantiations per (quantifier, trigger) index; each trigger's
        // display name is rendered once, when the attempt ends.
        let mut by_trigger: HashMap<(usize, usize), u64> = HashMap::new();
        // Legacy-mode interning telemetry, summed from the short-lived
        // per-leaf and per-round arenas.
        let mut legacy_interned: u64 = 0;
        let mut legacy_hits: u64 = 0;
        // Hash-consing mode shares one leaf template across rounds: the
        // atom table only grows, so each round extends the template with
        // the new atoms instead of rebuilding it from scratch.
        let mut leaf_ctx: Option<LeafCtx> = None;
        // ... and the same for the per-round E-matching e-graph: one
        // persistent graph, extended as atoms arrive, with the model's
        // equality merges rolled back after each round's matching.
        let mut ematch_ctx: Option<EmatchCtx> = None;

        let mut outcome = 'solve: {
            for round in 0..self.config.max_rounds {
                if self.cancel.is_cancelled() {
                    break 'solve Outcome::ResourceOut {
                        resource: Resource::Cancelled,
                        stats,
                    };
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    break 'solve Outcome::ResourceOut {
                        resource: Resource::Time,
                        stats,
                    };
                }
                stats.rounds = round + 1;
                stats.clauses = core.clauses.len();
                stats.max_clauses = stats.max_clauses.max(core.clauses.len());
                if self.tuning.hash_cons {
                    core.extend_atom_tids();
                }
                let cached = self.tuning.hash_cons.then(|| CachedView {
                    arena: &core.arena,
                    atom_tids: &core.atom_tids,
                    tid_zero: core.tid_zero,
                    tid_one: core.tid_one,
                });
                if let Some(view) = cached {
                    leaf_ctx.get_or_insert_with(LeafCtx::empty).extend(view);
                }
                let mut search = Search {
                    cl: &core.cl,
                    clauses: &core.clauses,
                    cached,
                    leaf: leaf_ctx.take(),
                    decisions: 0,
                    propagations: 0,
                    conflicts: 0,
                    theory_checks: 0,
                    merges: 0,
                    fm_eliminations: 0,
                    interned_terms: 0,
                    intern_hits: 0,
                    // The decision budget spans the whole attempt, not one round.
                    max_decisions: self.config.max_decisions.saturating_sub(stats.decisions),
                    deadline,
                    cancel: &self.cancel,
                    exhausted: false,
                    timed_out: false,
                    cancelled: false,
                    theory_fault,
                };
                let natoms = core.cl.atoms().len();
                let mut assign = vec![None; natoms];
                let result = search.dpll(&mut assign);
                stats.decisions += search.decisions;
                stats.propagations += search.propagations;
                stats.conflicts += search.conflicts;
                stats.theory_checks += search.theory_checks;
                stats.merges += search.merges;
                stats.fm_eliminations += search.fm_eliminations;
                legacy_interned += search.interned_terms;
                legacy_hits += search.intern_hits;
                leaf_ctx = search.leaf.take();
                if search.exhausted {
                    break 'solve Outcome::ResourceOut {
                        resource: if search.cancelled {
                            Resource::Cancelled
                        } else if search.timed_out {
                            Resource::Time
                        } else {
                            Resource::Decisions
                        },
                        stats,
                    };
                }
                let Some(model) = result else {
                    break 'solve Outcome::Proved { stats };
                };

                // Instantiate quantifiers asserted true in the model.
                // The round e-graph holds every ground atom side; in
                // hash-consing mode one persistent graph is extended with
                // the atoms each round adds and the model's equalities
                // are rolled back after matching, otherwise a throwaway
                // round arena is rebuilt exactly as the seed prover did.
                let mut round_arena = TermArena::new();
                let mut legacy_eg = Egraph::new();
                let merges_before;
                let (eg, ematch_arena): (&mut Egraph, &TermArena) = if self.tuning.hash_cons {
                    let ctx = ematch_ctx.get_or_insert_with(EmatchCtx::empty);
                    for ca in &core.atom_tids[ctx.next_atom..] {
                        if let Some(id) = ca.fst {
                            ctx.eg.intern_id(&core.arena, id);
                        }
                        if let Some(id) = ca.snd {
                            ctx.eg.intern_id(&core.arena, id);
                        }
                    }
                    ctx.next_atom = core.atom_tids.len();
                    merges_before = ctx.eg.merges();
                    ctx.rewind = Some(ctx.eg.checkpoint());
                    for (i, v) in model.iter().enumerate() {
                        if *v == Some(true) {
                            if let Atom::Eq(..) = core.cl.atom(i) {
                                let ca = core.atom_tids[i];
                                if let (Some(a), Some(b)) = (ca.fst, ca.snd) {
                                    let ra = ctx.eg.intern_id(&core.arena, a);
                                    let rb = ctx.eg.intern_id(&core.arena, b);
                                    // The model passed the theory check, so
                                    // this merge cannot conflict; ignore the
                                    // result defensively.
                                    let _ = ctx.eg.merge(ra, rb);
                                }
                            }
                        }
                    }
                    (&mut ctx.eg, &core.arena)
                } else {
                    intern_all_atoms(&core.cl, &mut round_arena, &mut legacy_eg);
                    assert_model_equalities(&core.cl, &model, &mut round_arena, &mut legacy_eg);
                    merges_before = 0;
                    (&mut legacy_eg, &round_arena)
                };
                stats.merges += eg.merges() - merges_before;

                let active: Vec<usize> = model
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| match (core.cl.atom(i), v) {
                        (Atom::Quant(q), Some(true)) => Some(*q),
                        _ => None,
                    })
                    .collect();

                let mut fresh = Vec::new();
                let mut instantiation_cap_hit = false;
                for q in active {
                    // E-matching safepoint: one poll per active quantifier
                    // bounds the time between polls by one trigger sweep.
                    if self.cancel.is_cancelled() {
                        break 'solve Outcome::ResourceOut {
                            resource: Resource::Cancelled,
                            stats,
                        };
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break 'solve Outcome::ResourceOut {
                            resource: Resource::Time,
                            stats,
                        };
                    }
                    // Borrow the closure by index: its instances are
                    // collected first and clausified after the trigger
                    // sweep, in the same order, since clausifying can
                    // grow `core.cl.quants`.
                    let proxy_atom = core.cl.quant_atom(q);
                    let closure = &core.cl.quants[q];
                    let mut insts: Vec<Formula> = Vec::new();
                    for (ti, trigger) in closure.triggers.iter().enumerate() {
                        let (bindings, candidates) = match_trigger_counted(eg, trigger);
                        stats.ematch_candidates += candidates;
                        for binding in bindings {
                            if stats.instantiations >= self.config.max_instantiations {
                                instantiation_cap_hit = true;
                                break;
                            }
                            // The trigger must bind every quantified variable.
                            if !closure
                                .vars
                                .iter()
                                .all(|(v, _)| binding.iter().any(|(x, _)| x == v))
                            {
                                continue;
                            }
                            let key = (q, binding);
                            if instantiated.contains(&key) {
                                continue;
                            }
                            let subst: Vec<(Symbol, Term)> = key
                                .1
                                .iter()
                                .map(|&(x, id)| (x, ematch_arena.term(id).clone()))
                                .collect();
                            instantiated.insert(key);
                            stats.instantiations += 1;
                            *by_trigger.entry((q, ti)).or_insert(0) += 1;
                            insts.push(closure.body.subst(&subst));
                        }
                    }
                    for inst in insts {
                        let mut inst_clauses = core.cl.clausify(&inst);
                        // Guard each clause with the proxy: ¬Q ∨ instance.
                        if let Some(p) = proxy_atom {
                            for c in &mut inst_clauses {
                                c.push(Lit {
                                    atom: p,
                                    pos: false,
                                });
                            }
                        }
                        fresh.extend(inst_clauses);
                    }
                }
                if let Some(ctx) = ematch_ctx.as_mut() {
                    if let Some(cp) = ctx.rewind.take() {
                        ctx.eg.rollback(cp);
                    }
                }
                if !self.tuning.hash_cons {
                    legacy_interned += round_arena.created();
                    legacy_hits += round_arena.hits();
                }
                let added = core.add_clauses(fresh);
                stats.clauses = core.clauses.len();
                stats.max_clauses = stats.max_clauses.max(core.clauses.len());
                if core.clauses.len() > self.config.max_clauses {
                    break 'solve Outcome::ResourceOut {
                        resource: Resource::Clauses,
                        stats,
                    };
                }
                if added == 0 {
                    if instantiation_cap_hit {
                        // The cap stopped instantiation before saturation; the
                        // surviving model is not evidence of anything.
                        break 'solve Outcome::ResourceOut {
                            resource: Resource::Instantiations,
                            stats,
                        };
                    }
                    // True saturation: no instantiation produces anything new,
                    // and a theory-consistent assignment survives.
                    break 'solve Outcome::Refuted {
                        model: render_model(&core.cl, &model),
                        stats,
                    };
                }
            }

            Outcome::ResourceOut {
                resource: Resource::Rounds,
                stats,
            }
        };

        // Interning telemetry, stamped once at the single exit: arena
        // deltas when hash-consing, per-leaf/per-round sums otherwise.
        let s = outcome.stats_mut();
        for ((q, ti), n) in by_trigger {
            let name = render_trigger(&core.cl.quants[q].triggers[ti]);
            *s.instantiations_by_trigger.entry(name).or_insert(0) += n;
        }
        if self.tuning.hash_cons {
            s.interned_terms = core.arena.created() - arena_created0;
            s.intern_hits = core.arena.hits() - arena_hits0;
        } else {
            s.interned_terms = legacy_interned;
            s.intern_hits = legacy_hits;
        }
        outcome
    }
}

/// A worker that keeps one theory-loaded solving core alive across many
/// proving attempts — the per-worker solver-reuse mechanism of the
/// parallel checking pipeline.
///
/// Between obligations the core is rolled back to its shared-theory
/// watermark (a push/pop-style scoped reset) instead of being rebuilt,
/// so the background axioms are clausified exactly once per worker
/// lifetime. The rollback runs at the *start* of each attempt, which
/// also heals a core left dirty by a contained panic.
pub struct SolverWorker {
    theory: Arc<Theory>,
    core: SolveCore,
}

impl SolverWorker {
    /// A worker primed with the given theory.
    pub fn new(theory: Arc<Theory>) -> SolverWorker {
        let core = theory.prepared_core();
        SolverWorker { theory, core }
    }

    /// Proves one obligation, reusing this worker's resident core when
    /// the problem carries the same shared theory (and theory sharing is
    /// tuned on); otherwise falls back to [`Problem::prove`] semantics.
    /// Outcomes and stats are identical either way — reuse only skips
    /// redundant preprocessing.
    pub fn prove(&mut self, problem: &Problem) -> Outcome {
        let reusable = problem.tuning.share_theory
            && problem
                .theory()
                .is_some_and(|t| Arc::ptr_eq(t, &self.theory));
        problem.timed_attempt(|deadline, theory_fault| {
            let reuse = reusable.then_some(&mut self.core);
            problem.solve_once(reuse, deadline, theory_fault)
        })
    }

    /// As [`SolverWorker::prove`], containing panics as
    /// [`Outcome::Crashed`]. The next attempt's watermark rollback
    /// discards whatever the crashed attempt left in the core.
    pub fn prove_isolated(&mut self, problem: &Problem) -> Outcome {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.prove(problem))) {
            Ok(outcome) => outcome,
            Err(payload) => Outcome::Crashed {
                message: panic_message(payload.as_ref()),
                stats: ProverStats::default(),
            },
        }
    }
}

/// Extracts the human-readable message from a caught panic payload.
/// `panic!` with a literal yields `&'static str`; with formatting,
/// `String`; anything else is opaque.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Renders a trigger multi-pattern as the stable string key used in
/// [`ProverStats::instantiations_by_trigger`].
fn render_trigger(trigger: &[Term]) -> String {
    let parts: Vec<String> = trigger.iter().map(ToString::to_string).collect();
    parts.join(", ")
}

fn render_model(cl: &Clausifier, model: &[Option<bool>]) -> Vec<String> {
    model
        .iter()
        .enumerate()
        .filter_map(|(i, v)| {
            let pos = (*v)?;
            let atom = match cl.atom(i) {
                Atom::Eq(a, b) => format!("{a} = {b}"),
                Atom::Le(a, b) => format!("{a} <= {b}"),
                Atom::Lt(a, b) => format!("{a} < {b}"),
                Atom::Pred(p, args) if args.is_empty() => format!("{p}"),
                Atom::Pred(p, args) => {
                    let rendered: Vec<String> = args.iter().map(ToString::to_string).collect();
                    format!("{p}({})", rendered.join(", "))
                }
                // Quantifier proxies carry no ground information worth
                // showing in a countermodel.
                Atom::Quant(_) => return None,
            };
            Some(if pos { atom } else { format!("!({atom})") })
        })
        .collect()
}

/// Legacy (non-hash-consing) round setup: intern every ground atom side
/// into a throwaway arena + e-graph, exactly as the seed prover did.
fn intern_all_atoms(cl: &Clausifier, arena: &mut TermArena, eg: &mut Egraph) {
    for atom in cl.atoms() {
        match atom {
            Atom::Eq(a, b) | Atom::Le(a, b) | Atom::Lt(a, b) => {
                if a.is_ground() {
                    eg.intern(arena, a);
                }
                if b.is_ground() {
                    eg.intern(arena, b);
                }
            }
            Atom::Pred(p, args) => {
                if args.iter().all(Term::is_ground) {
                    eg.intern(arena, &Term::App(*p, args.clone()));
                }
            }
            Atom::Quant(_) => {}
        }
    }
}

fn assert_model_equalities(
    cl: &Clausifier,
    model: &[Option<bool>],
    arena: &mut TermArena,
    eg: &mut Egraph,
) {
    for (i, v) in model.iter().enumerate() {
        if *v == Some(true) {
            if let Atom::Eq(a, b) = cl.atom(i) {
                if a.is_ground() && b.is_ground() {
                    let ra = eg.intern(arena, a);
                    let rb = eg.intern(arena, b);
                    // The model passed the theory check, so this merge
                    // cannot conflict; ignore the result defensively.
                    let _ = eg.merge(ra, rb);
                }
            }
        }
    }
}

/// Hash-consed hot-path view over the attempt core: the shared arena,
/// the per-atom cached term ids, and the pinned `0`/`1` literals.
#[derive(Clone, Copy)]
struct CachedView<'a> {
    arena: &'a TermArena,
    atom_tids: &'a [CachedAtom],
    tid_zero: TermId,
    tid_one: TermId,
}

/// The arithmetic shape of an atom recorded during the EUF phase of a
/// leaf check, consumed by the shared Fourier–Motzkin phases.
#[derive(Clone, Copy)]
enum ArithKind {
    Eq,
    Le,
    Lt,
}

/// The arithmetic literals a full leaf's EUF phase hands to the
/// Fourier–Motzkin phases: linear (dis)equalities and inequalities, and
/// the integer disequalities to test for entailment.
#[derive(Default)]
struct ArithLits {
    arith: Vec<(TermId, TermId, ArithKind, bool)>,
    diseqs: Vec<(TermId, TermId)>,
}

/// The hash-consed leaf checker's reusable template e-graph: every atom
/// operand (and the `0`/`1` markers) interned once per round, with the
/// per-atom e-graph refs precomputed. A leaf check asserts its handful
/// of equalities directly on the template and rewinds them afterwards
/// ([`Egraph::checkpoint`]/[`Egraph::rollback`]), so per-leaf cost scales
/// with the *assignment's* merge count instead of the term universe.
struct LeafCtx {
    eg: Egraph,
    /// Per-atom `[fst, snd]` operand refs, indexed like
    /// [`CachedView::atom_tids`].
    atom_refs: Vec<[Option<euf::TermRef>; 2]>,
    /// The interned `0` literal, the "false" marker for predicate atoms.
    ref_zero: euf::TermRef,
    /// The interned `1` literal, the "true" marker for predicate atoms.
    ref_one: euf::TermRef,
}

/// One attempt's persistent E-matching e-graph (hash-consing mode).
/// The term universe only grows (atom tables are append-only), so each
/// round interns just the new atoms' operands; the round's model
/// equalities are merged on top of a checkpoint and rolled back after
/// matching. Intern order equals the per-round rebuild order, so refs,
/// class structure, and therefore instantiation order are identical to
/// rebuilding from scratch.
struct EmatchCtx {
    eg: Egraph,
    /// Atoms `0..next_atom` are already interned.
    next_atom: usize,
    /// The checkpoint taken before this round's model merges, consumed
    /// by the end-of-round rollback.
    rewind: Option<euf::Checkpoint>,
}

impl EmatchCtx {
    fn empty() -> EmatchCtx {
        EmatchCtx {
            eg: Egraph::new(),
            next_atom: 0,
            rewind: None,
        }
    }
}

impl LeafCtx {
    fn empty() -> LeafCtx {
        LeafCtx {
            eg: Egraph::new(),
            atom_refs: Vec::new(),
            ref_zero: 0,
            ref_one: 0,
        }
    }

    /// Interns the ground operands of every atom added since the last
    /// call (the atom table only grows between rounds, so refs stay
    /// stable). Hash-consed arena ids cannot collide on congruence
    /// signatures while no equalities are asserted — and every leaf's
    /// unions are rolled back before the next extension — so extending
    /// performs no unions and the template stays a pure term universe.
    fn extend(&mut self, view: CachedView<'_>) {
        for ca in &view.atom_tids[self.atom_refs.len()..] {
            self.atom_refs.push([
                ca.fst.map(|id| self.eg.intern_id(view.arena, id)),
                ca.snd.map(|id| self.eg.intern_id(view.arena, id)),
            ]);
        }
        self.ref_zero = self.eg.intern_id(view.arena, view.tid_zero);
        self.ref_one = self.eg.intern_id(view.arena, view.tid_one);
    }
}

struct Search<'a> {
    cl: &'a Clausifier,
    clauses: &'a [Clause],
    /// `Some` when hash-consing is tuned on: leaves intern by id lookup
    /// through this view. `None` falls back to per-leaf tree interning.
    cached: Option<CachedView<'a>>,
    /// The round's template e-graph; `Some` exactly when `cached` is.
    leaf: Option<LeafCtx>,
    decisions: u64,
    propagations: u64,
    conflicts: u64,
    theory_checks: u64,
    merges: u64,
    fm_eliminations: u64,
    /// Legacy-mode telemetry: nodes created in per-leaf arenas.
    interned_terms: u64,
    /// Legacy-mode telemetry: hash-consing hits in per-leaf arenas.
    intern_hits: u64,
    max_decisions: u64,
    deadline: Option<Instant>,
    cancel: &'a CancelToken,
    exhausted: bool,
    timed_out: bool,
    cancelled: bool,
    /// When set (by an installed [`crate::fault::FaultPlan`]), the first
    /// theory-consistency check panics, simulating a theory-solver bug
    /// deep inside the search. Carries the solver entry index for the
    /// panic message.
    theory_fault: Option<u64>,
}

/// How often a [`FaultKind::Stall`]ed solver entry polls its cancel token.
const STALL_POLL: std::time::Duration = std::time::Duration::from_millis(2);

/// How many decisions elapse between wall-clock deadline checks; each
/// decision already scans every clause, so checking this often keeps the
/// overhead of `Instant::now` well under the noise floor.
const DEADLINE_CHECK_INTERVAL: u64 = 64;

impl Search<'_> {
    /// Returns a theory-consistent assignment, or `None` if none exists
    /// (i.e. the clause set is unsatisfiable modulo the theories).
    fn dpll(&mut self, assign: &mut Vec<Option<bool>>) -> Option<Vec<Option<bool>>> {
        if self.exhausted {
            return None;
        }
        // Unit propagation to fixpoint.
        let mut trail: Vec<usize> = Vec::new();
        loop {
            let mut progressed = false;
            for clause in self.clauses {
                let mut satisfied = false;
                let mut unassigned: Option<Lit> = None;
                let mut unassigned_count = 0;
                for &lit in clause {
                    match assign[lit.atom] {
                        Some(v) if v == lit.pos => {
                            satisfied = true;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            unassigned_count += 1;
                            unassigned = Some(lit);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match unassigned_count {
                    0 => {
                        // Conflict: undo propagation and fail this branch.
                        self.conflicts += 1;
                        for &a in &trail {
                            assign[a] = None;
                        }
                        return None;
                    }
                    1 => {
                        let lit = unassigned.expect("count is one");
                        assign[lit.atom] = Some(lit.pos);
                        trail.push(lit.atom);
                        self.propagations += 1;
                        progressed = true;
                    }
                    _ => {}
                }
            }
            if !progressed {
                break;
            }
        }

        // Pick a branching literal from the first unsatisfied clause.
        let mut branch: Option<Lit> = None;
        'outer: for clause in self.clauses {
            let mut satisfied = false;
            for &lit in clause {
                if assign[lit.atom] == Some(lit.pos) {
                    satisfied = true;
                    break;
                }
            }
            if satisfied {
                continue;
            }
            for &lit in clause {
                if assign[lit.atom].is_none() {
                    branch = Some(lit);
                    break 'outer;
                }
            }
        }

        match branch {
            None => {
                // All clauses satisfied: check theory consistency.
                if self.theory_consistent(assign) {
                    let model = assign.clone();
                    for &a in &trail {
                        assign[a] = None;
                    }
                    Some(model)
                } else {
                    // A theory-rejected leaf is a conflict too.
                    self.conflicts += 1;
                    for &a in &trail {
                        assign[a] = None;
                    }
                    None
                }
            }
            Some(lit) => {
                // Prune at the first congruence conflict: no leaf below
                // this node can pass the leaf check (see `euf_consistent`).
                if !self.euf_consistent(assign) {
                    self.conflicts += 1;
                    for &a in &trail {
                        assign[a] = None;
                    }
                    return None;
                }
                self.decisions += 1;
                if self.decisions > self.max_decisions {
                    self.exhausted = true;
                    for &a in &trail {
                        assign[a] = None;
                    }
                    return None;
                }
                if self.decisions.is_multiple_of(DEADLINE_CHECK_INTERVAL) {
                    if self.cancel.is_cancelled() {
                        self.exhausted = true;
                        self.cancelled = true;
                        for &a in &trail {
                            assign[a] = None;
                        }
                        return None;
                    }
                    if self.deadline.is_some_and(|d| Instant::now() >= d) {
                        self.exhausted = true;
                        self.timed_out = true;
                        for &a in &trail {
                            assign[a] = None;
                        }
                        return None;
                    }
                }
                for value in [lit.pos, !lit.pos] {
                    assign[lit.atom] = Some(value);
                    if let Some(model) = self.dpll(assign) {
                        assign[lit.atom] = None;
                        for &a in &trail {
                            assign[a] = None;
                        }
                        return Some(model);
                    }
                }
                assign[lit.atom] = None;
                for &a in &trail {
                    assign[a] = None;
                }
                None
            }
        }
    }

    /// Counts one theory check and fires an injected theory fault, if
    /// the installed [`crate::fault::FaultPlan`] scheduled one.
    fn enter_theory_check(&mut self) {
        if let Some(entry) = self.theory_fault {
            panic!("injected theory-solver failure at solver entry {entry}");
        }
        self.theory_checks += 1;
    }

    /// Runs `check` on the round's template e-graph and rewinds whatever
    /// it asserted, counting its unions. `None` when there is no template
    /// (hash-consing tuned off).
    fn on_template(
        &mut self,
        check: impl FnOnce(&Self, CachedView<'_>, &mut LeafCtx) -> bool,
    ) -> Option<bool> {
        let mut ctx = self.leaf.take()?;
        let view = self.cached.expect("leaf template implies a cached view");
        let before = ctx.eg.merges();
        let cp = ctx.eg.checkpoint();
        let ok = check(self, view, &mut ctx);
        ctx.eg.rollback(cp);
        self.merges += ctx.eg.merges() - before;
        self.leaf = Some(ctx);
        Some(ok)
    }

    /// The node check run after unit propagation and before each
    /// decision: phase 1 of the hash-consed leaf check (congruence
    /// closure over the assigned equalities, disequalities and predicate
    /// facts) on the partial assignment. Congruence closure is monotone,
    /// so when this fails every full leaf below the node fails the leaf
    /// check too, and the search can backtrack at once without changing
    /// which leaf it reaches first. Without the template e-graph (the
    /// legacy tuning) there is no node check and the search is unpruned.
    fn euf_consistent(&mut self, assign: &[Option<bool>]) -> bool {
        if self.leaf.is_none() {
            return true;
        }
        self.enter_theory_check();
        self.on_template(|s, view, ctx| s.assert_euf(assign, view, ctx, None)) != Some(false)
    }

    /// Nelson–Oppen style consistency check of the assigned literals:
    /// congruence closure over the equalities and predicate facts, then
    /// Fourier–Motzkin over the (EUF-canonicalized) arithmetic literals,
    /// then exact handling of integer disequalities.
    fn theory_consistent(&mut self, assign: &[Option<bool>]) -> bool {
        self.enter_theory_check();
        let mut elims = 0;
        let cached = self.on_template(|s, view, ctx| {
            let mut lits = ArithLits::default();
            s.assert_euf(assign, view, ctx, Some(&mut lits))
                && arith_phases(
                    &mut ctx.eg,
                    view.arena,
                    &lits.arith,
                    &lits.diseqs,
                    &mut elims,
                )
        });
        self.fm_eliminations += elims;
        if let Some(ok) = cached {
            return ok;
        }
        let mut leaf_arena = TermArena::new();
        let mut eg = Egraph::new();
        let ok = self.consistent_legacy(assign, &mut leaf_arena, &mut eg);
        self.interned_terms += leaf_arena.created();
        self.intern_hits += leaf_arena.hits();
        self.merges += eg.merges();
        ok
    }

    /// Phase 1 of the hash-consed check on the round's template e-graph:
    /// every assigned atom's operand refs are precomputed, so asserting
    /// the equalities, disequalities and predicate facts is a handful of
    /// class unions with zero interning traffic (the caller rewinds
    /// them afterwards). Returns false on a congruence conflict. A full
    /// leaf passes `lits` to collect the arithmetic literals for phases
    /// 2 and 3; a node check passes `None`.
    ///
    /// Verdicts match the legacy per-leaf rebuild exactly: congruence
    /// closure restricted to the assigned atoms' subterm-closed universe
    /// is unchanged by the template's extra terms, which can join classes
    /// but never equate two assigned terms (or inject an integer value)
    /// that the smaller universe wouldn't.
    fn assert_euf(
        &self,
        assign: &[Option<bool>],
        view: CachedView<'_>,
        ctx: &mut LeafCtx,
        mut lits: Option<&mut ArithLits>,
    ) -> bool {
        let eg = &mut ctx.eg;
        for (i, v) in assign.iter().enumerate() {
            let Some(value) = *v else { continue };
            let ca = view.atom_tids[i];
            let [fst, snd] = ctx.atom_refs[i];
            let kind = match self.cl.atom(i) {
                Atom::Eq(..) => {
                    let ra = fst.expect("equality operands are interned");
                    let rb = snd.expect("equality operands are interned");
                    let asserted = if value {
                        eg.merge(ra, rb)
                    } else {
                        eg.assert_diseq(ra, rb)
                    };
                    if asserted.is_err() {
                        return false;
                    }
                    ArithKind::Eq
                }
                Atom::Pred(..) => {
                    let rt = fst.expect("predicate arguments are interned");
                    let marker = if value { ctx.ref_one } else { ctx.ref_zero };
                    if eg.merge(rt, marker).is_err() {
                        return false;
                    }
                    continue;
                }
                Atom::Le(..) => ArithKind::Le,
                Atom::Lt(..) => ArithKind::Lt,
                Atom::Quant(_) => continue,
            };
            if let Some(lits) = lits.as_deref_mut() {
                let a = ca.fst.expect("arithmetic operands are ground");
                let b = ca.snd.expect("arithmetic operands are ground");
                match (kind, value) {
                    (ArithKind::Eq, false) => lits.diseqs.push((a, b)),
                    _ => lits.arith.push((a, b, kind, value)),
                }
            }
        }
        true
    }

    /// Legacy leaf check: a throwaway arena per leaf, re-interning every
    /// assigned atom's term trees — the seed prover's work profile, kept
    /// for the ablation baseline. Interning terms before ids preserves
    /// the e-graph's ref numbering, so arithmetic atom keys (and thus the
    /// whole search trace) match the cached path exactly.
    fn consistent_legacy(
        &mut self,
        assign: &[Option<bool>],
        arena: &mut TermArena,
        eg: &mut Egraph,
    ) -> bool {
        let true_term = Term::int(1);
        let false_term = Term::int(0);

        let mut diseqs: Vec<(TermId, TermId)> = Vec::new();
        let mut arith: Vec<(TermId, TermId, ArithKind, bool)> = Vec::new();

        // Phase 1: EUF assertions.
        for (i, v) in assign.iter().enumerate() {
            let Some(value) = *v else { continue };
            match self.cl.atom(i) {
                Atom::Eq(a, b) => {
                    let ra = eg.intern(arena, a);
                    let rb = eg.intern(arena, b);
                    if value {
                        if eg.merge(ra, rb).is_err() {
                            return false;
                        }
                        arith.push((eg.tid(ra), eg.tid(rb), ArithKind::Eq, true));
                    } else {
                        if eg.assert_diseq(ra, rb).is_err() {
                            return false;
                        }
                        diseqs.push((eg.tid(ra), eg.tid(rb)));
                    }
                }
                Atom::Pred(p, args) => {
                    let t = eg.intern(arena, &Term::App(*p, args.clone()));
                    let marker = eg.intern(arena, if value { &true_term } else { &false_term });
                    if eg.merge(t, marker).is_err() {
                        return false;
                    }
                }
                Atom::Le(a, b) => {
                    let ra = eg.intern(arena, a);
                    let rb = eg.intern(arena, b);
                    arith.push((eg.tid(ra), eg.tid(rb), ArithKind::Le, value));
                }
                Atom::Lt(a, b) => {
                    let ra = eg.intern(arena, a);
                    let rb = eg.intern(arena, b);
                    arith.push((eg.tid(ra), eg.tid(rb), ArithKind::Lt, value));
                }
                Atom::Quant(_) => {}
            }
        }

        arith_phases(eg, arena, &arith, &diseqs, &mut self.fm_eliminations)
    }
}

/// Phases 2 and 3 of the leaf check, shared by both interning modes:
/// Fourier–Motzkin feasibility over the linearized arithmetic literals,
/// then exact integer-disequality entailment.
fn arith_phases(
    eg: &mut Egraph,
    arena: &TermArena,
    arith: &[(TermId, TermId, ArithKind, bool)],
    diseqs: &[(TermId, TermId)],
    fm_eliminations: &mut u64,
) -> bool {
    // Phase 2: arithmetic.
    let mut constraints: Vec<Constraint> = Vec::new();
    for &(a, b, kind, value) in arith {
        let la = linearize(arena, eg, a);
        let lb = linearize(arena, eg, b);
        match (kind, value) {
            (ArithKind::Eq, _) => constraints.push(Constraint::eq0(la.sub(&lb))),
            // a ≤ b  ⇔  a - b ≤ 0
            (ArithKind::Le, true) => constraints.push(Constraint::le0(la.sub(&lb))),
            // ¬(a ≤ b)  ⇔  b < a  ⇔  b - a < 0
            (ArithKind::Le, false) => constraints.push(Constraint::lt0(lb.sub(&la))),
            (ArithKind::Lt, true) => constraints.push(Constraint::lt0(la.sub(&lb))),
            (ArithKind::Lt, false) => constraints.push(Constraint::le0(lb.sub(&la))),
        }
    }
    let (arith_ok, elims) = feasible_counted(&constraints);
    *fm_eliminations += elims;
    if !arith_ok {
        return false;
    }

    // Phase 3: integer disequalities. A disequality a ≠ b conflicts
    // exactly when the arithmetic constraints entail a = b.
    for &(a, b) in diseqs {
        let la = linearize(arena, eg, a);
        let lb = linearize(arena, eg, b);
        let (entailed, elims) = entails_eq0_counted(&constraints, &la.sub(&lb));
        *fm_eliminations += elims;
        if entailed {
            return false;
        }
    }
    true
}

/// Converts an interned ground term into a linear expression over opaque
/// atoms, canonicalizing uninterpreted subterms by their
/// congruence-closure representative (this is how equality facts flow
/// into arithmetic).
fn linearize(arena: &TermArena, eg: &mut Egraph, id: TermId) -> LinExpr {
    match arena.head(id) {
        Head::Int(v) => LinExpr::constant(Rat::from(v)),
        Head::Sym(f) => {
            let args = arena.args(id);
            match (f.as_str(), args.len()) {
                ("+", 2) => {
                    let (x, y) = (args[0], args[1]);
                    let a = linearize(arena, eg, x);
                    let b = linearize(arena, eg, y);
                    a.add(&b)
                }
                ("-", 2) => {
                    let (x, y) = (args[0], args[1]);
                    let a = linearize(arena, eg, x);
                    let b = linearize(arena, eg, y);
                    a.sub(&b)
                }
                ("neg", 1) => {
                    let x = args[0];
                    linearize(arena, eg, x).scale(-Rat::ONE)
                }
                ("*", 2) => {
                    let (x, y) = (args[0], args[1]);
                    let a = linearize(arena, eg, x);
                    let b = linearize(arena, eg, y);
                    if let Some(k) = a.as_constant() {
                        b.scale(k)
                    } else if let Some(k) = b.as_constant() {
                        a.scale(k)
                    } else {
                        opaque(arena, eg, id)
                    }
                }
                _ => opaque(arena, eg, id),
            }
        }
    }
}

fn opaque(arena: &TermArena, eg: &mut Egraph, id: TermId) -> LinExpr {
    let r = eg.intern_id(arena, id);
    if let Some(v) = eg.class_int_value(r) {
        return LinExpr::constant(Rat::from(v));
    }
    LinExpr::atom(eg.find(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    fn x() -> Term {
        Term::cnst("x")
    }
    fn y() -> Term {
        Term::cnst("y")
    }

    fn prove(hyps: Vec<Formula>, goal: Formula) -> bool {
        let mut p = Problem::new();
        for h in hyps {
            p.hypothesis(h);
        }
        p.goal(goal);
        p.prove().is_proved()
    }

    #[test]
    fn trivial_goal() {
        assert!(prove(vec![], Formula::True));
    }

    #[test]
    fn unprovable_false() {
        assert!(!prove(vec![], Formula::False));
    }

    #[test]
    fn hypothesis_discharges_goal() {
        let p = Formula::pred("p", vec![]);
        assert!(prove(vec![p.clone()], p));
    }

    #[test]
    fn modus_ponens() {
        let p = Formula::pred("p", vec![]);
        let q = Formula::pred("q", vec![]);
        assert!(prove(vec![p.clone(), p.implies(q.clone())], q));
    }

    #[test]
    fn arithmetic_transitivity() {
        // x < y, y < 3 ⊢ x < 3
        assert!(prove(
            vec![x().lt(&y()), y().lt(&Term::int(3))],
            x().lt(&Term::int(3)),
        ));
    }

    #[test]
    fn arithmetic_non_theorem() {
        // x < y does not entail y < x.
        assert!(!prove(vec![x().lt(&y())], y().lt(&x())));
    }

    #[test]
    fn euf_congruence() {
        // x = y ⊢ f(x) = f(y)
        let fx = Term::app("f", vec![x()]);
        let fy = Term::app("f", vec![y()]);
        assert!(prove(vec![x().eq(&y())], fx.eq(&fy)));
    }

    #[test]
    fn euf_not_injective() {
        // f(x) = f(y) does not entail x = y.
        let fx = Term::app("f", vec![x()]);
        let fy = Term::app("f", vec![y()]);
        assert!(!prove(vec![fx.eq(&fy)], x().eq(&y())));
    }

    #[test]
    fn equalities_flow_into_arithmetic() {
        // x = y + 1 ∧ y ≥ 0 ⊢ x > 0
        assert!(prove(
            vec![x().eq(&y().add(&Term::int(1))), Term::int(0).le(&y()),],
            x().gt0(),
        ));
    }

    #[test]
    fn disequality_reasoning() {
        // x ≤ 0 ∧ x ≥ 0 ⊢ x = 0, via disequality entailment.
        assert!(prove(
            vec![x().le(&Term::int(0)), Term::int(0).le(&x())],
            x().eq(&Term::int(0)),
        ));
    }

    #[test]
    fn case_split_over_disjunction() {
        // (p ∨ q), p ⇒ r, q ⇒ r ⊢ r
        let p = Formula::pred("p", vec![]);
        let q = Formula::pred("q", vec![]);
        let r = Formula::pred("r", vec![]);
        assert!(prove(
            vec![
                Formula::or(vec![p.clone(), q.clone()]),
                p.implies(r.clone()),
                q.implies(r.clone()),
            ],
            r,
        ));
    }

    #[test]
    fn distinct_integer_literals() {
        // x = 3 ⊢ x ≠ 5
        assert!(prove(vec![x().eq(&Term::int(3))], x().ne(&Term::int(5)),));
    }

    #[test]
    fn axiom_instantiation_by_trigger() {
        // forall a. p(a) ⇒ q(a), with trigger p(a); p(c) ⊢ q(c).
        let a = Term::var("a", Sort::Int);
        let ax = Formula::forall(
            vec![(stq_util::Symbol::intern("a"), Sort::Int)],
            vec![vec![Term::app("pp", vec![a.clone()])]],
            Formula::pred("pp", vec![a.clone()]).implies(Formula::pred("qq", vec![a])),
        );
        let c = Term::cnst("c");
        let mut p = Problem::new();
        p.axiom(ax);
        p.hypothesis(Formula::pred("pp", vec![c.clone()]));
        p.goal(Formula::pred("qq", vec![c]));
        assert!(p.prove().is_proved());
    }

    #[test]
    fn multiplication_sign_lemma() {
        // The paper's pos obligation: with the triggered sign lemma,
        // x > 0 ∧ y > 0 ⊢ x*y > 0.
        let a = Term::var("a", Sort::Int);
        let b = Term::var("b", Sort::Int);
        let lemma = Formula::forall(
            vec![
                (stq_util::Symbol::intern("a"), Sort::Int),
                (stq_util::Symbol::intern("b"), Sort::Int),
            ],
            vec![vec![a.mul(&b)]],
            Formula::and(vec![a.gt0(), b.gt0()]).implies(a.mul(&b).gt0()),
        );
        let mut p = Problem::new();
        p.axiom(lemma);
        p.hypothesis(x().gt0());
        p.hypothesis(y().gt0());
        p.goal(x().mul(&y()).gt0());
        assert!(p.prove().is_proved());
    }

    #[test]
    fn subtraction_of_positives_is_not_positive() {
        // The paper's erroneous E1 - E2 rule must NOT be provable.
        let outcome = {
            let mut p = Problem::new();
            p.hypothesis(x().gt0());
            p.hypothesis(y().gt0());
            p.goal(x().sub(&y()).gt0());
            p.prove()
        };
        assert!(!outcome.is_proved());
        match outcome {
            Outcome::Refuted { model, .. } => assert!(!model.is_empty()),
            other => panic!("expected a countermodel, got {other:?}"),
        }
    }

    #[test]
    fn negation_of_negative_is_positive() {
        // neg qualifier: x < 0 ⊢ -x > 0.
        assert!(prove(vec![x().lt0()], x().neg().gt0()));
    }

    #[test]
    fn nested_forall_hypothesis_via_proxy() {
        // (forall a. p(a)) ⊢ p(c): the hypothesis quantifier becomes a
        // proxy that unit-propagates to true and instantiates on c.
        let a = Term::var("a", Sort::Int);
        let hyp = Formula::forall(
            vec![(stq_util::Symbol::intern("a"), Sort::Int)],
            vec![vec![Term::app("p2", vec![a.clone()])]],
            Formula::pred("p2", vec![a]),
        );
        let c = Term::cnst("c");
        // Mention p2(c) in the goal so the trigger has something to match.
        assert!(prove(vec![hyp], Formula::pred("p2", vec![c])));
    }

    #[test]
    fn guarded_quantifier_under_disjunction() {
        // h: q ∨ (forall a. {p3(a)} p3(a) ⇒ r), ¬q, p3(c) ⊢ r... simplified:
        // the quantifier proxy participates in case splitting.
        let a = Term::var("a", Sort::Int);
        let q = Formula::pred("q3", vec![]);
        let r = Formula::pred("r3", vec![]);
        let fa = Formula::forall(
            vec![(stq_util::Symbol::intern("a"), Sort::Int)],
            vec![vec![Term::app("p3", vec![a.clone()])]],
            Formula::pred("p3", vec![a]).implies(r.clone()),
        );
        let hyp = Formula::or(vec![q.clone(), fa]);
        let c = Term::cnst("c");
        assert!(prove(
            vec![hyp, q.negate(), Formula::pred("p3", vec![c])],
            r,
        ));
    }

    #[test]
    fn negated_goal_forall_skolemizes() {
        // ⊢ forall a. p4(a) is not provable without axioms; the prover
        // skolemizes and reports unknown rather than looping.
        let a = Term::var("a", Sort::Int);
        let goal = Formula::forall(
            vec![(stq_util::Symbol::intern("a"), Sort::Int)],
            vec![],
            Formula::pred("p4", vec![a]),
        );
        assert!(!prove(vec![], goal));
    }

    #[test]
    fn goal_forall_provable_from_axiom() {
        // forall a. {p5(a)} p5(a) ⊢ forall b. p5(b): skolemize the goal to
        // p5(sk); the axiom instantiates on sk via its trigger... note the
        // trigger p5(a) matches the goal's skolemized p5(sk) term.
        let a = Term::var("a", Sort::Int);
        let ax = Formula::forall(
            vec![(stq_util::Symbol::intern("a"), Sort::Int)],
            vec![vec![Term::app("p5t", vec![a.clone()])]],
            Formula::pred("p5", vec![Term::app("p5t", vec![a])]),
        );
        let b = Term::var("b", Sort::Int);
        let goal = Formula::forall(
            vec![(stq_util::Symbol::intern("b"), Sort::Int)],
            vec![],
            Formula::pred("p5", vec![Term::app("p5t", vec![b])]),
        );
        assert!(prove(vec![ax], goal));
    }

    #[test]
    fn select_store_axioms() {
        // The store axioms used by the soundness checker.
        let s = Term::var("s", Sort::other("Store"));
        let aa = Term::var("a", Sort::Int);
        let bb = Term::var("b", Sort::Int);
        let vv = Term::var("v", Sort::Int);
        let store = |s: &Term, a: &Term, v: &Term| {
            Term::app("store", vec![s.clone(), a.clone(), v.clone()])
        };
        let select = |s: &Term, a: &Term| Term::app("select", vec![s.clone(), a.clone()]);
        let vars = |names: &[&str]| -> Vec<(stq_util::Symbol, Sort)> {
            names
                .iter()
                .map(|n| {
                    let sort = if *n == "s" {
                        Sort::other("Store")
                    } else {
                        Sort::Int
                    };
                    (stq_util::Symbol::intern(n), sort)
                })
                .collect()
        };
        let ax1 = Formula::forall(
            vars(&["s", "a", "v"]),
            vec![vec![select(&store(&s, &aa, &vv), &aa)]],
            select(&store(&s, &aa, &vv), &aa).eq(&vv),
        );
        let ax2 = Formula::forall(
            vars(&["s", "a", "b", "v"]),
            vec![vec![select(&store(&s, &aa, &vv), &bb)]],
            Formula::or(vec![
                aa.eq(&bb),
                select(&store(&s, &aa, &vv), &bb).eq(&select(&s, &bb)),
            ]),
        );

        let sigma = Term::cnst("sigma");
        let l1 = Term::cnst("l1");
        let l2 = Term::cnst("l2");
        let val = Term::int(7);

        // select(store(σ, l1, 7), l1) = 7
        let mut p = Problem::new();
        p.axiom(ax1.clone());
        p.axiom(ax2.clone());
        p.goal(select(&store(&sigma, &l1, &val), &l1).eq(&val));
        assert!(p.prove().is_proved());

        // l1 ≠ l2 ⊢ select(store(σ, l1, 7), l2) = select(σ, l2)
        let mut p = Problem::new();
        p.axiom(ax1);
        p.axiom(ax2);
        p.hypothesis(l1.ne(&l2));
        p.goal(select(&store(&sigma, &l1, &val), &l2).eq(&select(&sigma, &l2)));
        assert!(p.prove().is_proved());
    }

    #[test]
    fn iff_round_trips_through_the_prover() {
        // (p ⇔ q), p ⊢ q and (p ⇔ q), ¬p ⊢ ¬q.
        let p = Formula::pred("pi", vec![]);
        let q = Formula::pred("qi", vec![]);
        assert!(prove(vec![p.clone().iff(q.clone()), p.clone()], q.clone(),));
        assert!(prove(
            vec![p.clone().iff(q.clone()), p.clone().negate()],
            q.negate(),
        ));
        // p ⇔ q alone does not prove q.
        let r = prove(
            vec![p.clone().iff(Formula::pred("qi", vec![]))],
            Formula::pred("qi", vec![]),
        );
        assert!(!r);
    }

    #[test]
    fn stats_are_populated() {
        let mut p = Problem::new();
        p.hypothesis(x().gt0());
        p.goal(x().gt0());
        let outcome = p.prove();
        assert!(outcome.is_proved());
        let stats = outcome.stats();
        assert!(stats.rounds >= 1);
        // Proving anything requires refuting every branch, so at least
        // one conflict; the hypothesis and negated goal unit-propagate.
        assert!(stats.conflicts >= 1);
        assert!(stats.propagations >= 1);
        assert!(stats.clauses >= 2);
    }

    #[test]
    fn theory_checks_and_eliminations_are_counted() {
        // x < y, y < 3 ⊢ x < 3 is propositionally consistent when the
        // negated goal is asserted, so refuting it takes a theory check
        // with Fourier–Motzkin work.
        let mut p = Problem::new();
        p.hypothesis(x().lt(&y()));
        p.hypothesis(y().lt(&Term::int(3)));
        p.goal(x().lt(&Term::int(3)));
        let outcome = p.prove();
        assert!(outcome.is_proved());
        let stats = outcome.stats();
        assert!(stats.theory_checks >= 1);
        assert!(stats.fm_eliminations >= 1);
    }

    #[test]
    fn instantiations_are_attributed_to_triggers() {
        // The sign-lemma proof instantiates exactly one trigger: a * b.
        let a = Term::var("a", Sort::Int);
        let b = Term::var("b", Sort::Int);
        let lemma = Formula::forall(
            vec![
                (stq_util::Symbol::intern("a"), Sort::Int),
                (stq_util::Symbol::intern("b"), Sort::Int),
            ],
            vec![vec![a.mul(&b)]],
            Formula::and(vec![a.gt0(), b.gt0()]).implies(a.mul(&b).gt0()),
        );
        let mut p = Problem::new();
        p.axiom(lemma);
        p.hypothesis(x().gt0());
        p.hypothesis(y().gt0());
        p.goal(x().mul(&y()).gt0());
        let outcome = p.prove();
        assert!(outcome.is_proved());
        let stats = outcome.stats();
        assert!(stats.instantiations >= 1);
        assert!(stats.ematch_candidates >= 1);
        let per_trigger: u64 = stats.instantiations_by_trigger.values().sum();
        assert_eq!(per_trigger, stats.instantiations as u64);
        assert!(stats
            .instantiations_by_trigger
            .keys()
            .any(|k| k.contains('*')));
    }

    #[test]
    fn proved_wall_time_is_stamped() {
        let mut p = Problem::new();
        p.goal(Formula::True);
        // Duration is monotone but can legitimately measure zero on a
        // trivial goal; the stamp itself must exist for every outcome.
        let _ = p.prove().stats().wall;
    }

    #[test]
    fn zero_decision_budget_reports_resource_out() {
        let p = Formula::pred("p", vec![]);
        let q = Formula::pred("q", vec![]);
        let r = Formula::pred("r", vec![]);
        let mut problem = Problem::new();
        problem.config.max_decisions = 0;
        problem.hypothesis(Formula::or(vec![p, q]));
        problem.goal(r);
        let outcome = problem.prove();
        assert_eq!(outcome.resource(), Some(Resource::Decisions));
    }

    #[test]
    fn pre_cancelled_token_reports_cancelled_not_time() {
        let mut p = Problem::new();
        p.goal(Term::int(1).eq(&Term::int(1)));
        p.cancel = CancelToken::new();
        p.cancel.cancel();
        let outcome = p.prove();
        assert_eq!(outcome.resource(), Some(Resource::Cancelled));
        // Cancellation is not a crash and not a conclusion.
        assert!(!outcome.is_proved() && !outcome.is_refuted() && !outcome.is_crashed());
    }

    #[test]
    fn expired_token_deadline_reports_time() {
        let mut p = Problem::new();
        p.hypothesis(x().lt(&y()));
        p.hypothesis(y().lt(&Term::int(3)));
        p.goal(x().lt(&Term::int(3)));
        p.cancel = CancelToken::deadline_in(std::time::Duration::ZERO);
        let outcome = p.prove();
        assert_eq!(outcome.resource(), Some(Resource::Time));
    }

    #[test]
    fn default_token_changes_nothing() {
        // The always-quiet token must not perturb outcomes: same proof,
        // same conclusion, with and without an explicit fresh token.
        let mut p = Problem::new();
        p.hypothesis(x().gt0());
        p.goal(x().gt0());
        assert!(p.prove().is_proved());
        p.cancel = CancelToken::new();
        assert!(p.prove().is_proved());
    }

    #[test]
    #[should_panic(expected = "no goal")]
    fn missing_goal_panics() {
        Problem::new().prove();
    }

    #[test]
    fn prove_isolated_contains_the_missing_goal_panic() {
        let outcome = Problem::new().prove_isolated();
        assert!(outcome.is_crashed());
        assert!(
            outcome.crash_message().unwrap().contains("no goal"),
            "{outcome:?}"
        );
        assert!(!outcome.is_proved() && !outcome.is_refuted() && !outcome.is_resource_out());
    }

    fn trivial_problem() -> Problem {
        let mut p = Problem::new();
        p.goal(Term::int(1).eq(&Term::int(1)));
        p
    }

    #[test]
    fn injected_panic_is_contained_and_scoped_to_its_entry() {
        fault::install(fault::FaultPlan::new().inject(1, FaultKind::Panic));
        let p = trivial_problem();
        assert!(p.prove_isolated().is_proved(), "entry 0: no fault");
        let crashed = p.prove_isolated();
        assert_eq!(
            crashed.crash_message(),
            Some("injected panic at solver entry 1")
        );
        assert!(p.prove_isolated().is_proved(), "entry 2: no fault");
        fault::clear();
    }

    #[test]
    fn injected_resource_out_names_the_injected_resource() {
        fault::install(fault::FaultPlan::new().inject(0, FaultKind::ResourceOut));
        let outcome = trivial_problem().prove();
        assert_eq!(outcome.resource(), Some(Resource::Injected));
        fault::clear();
    }

    #[test]
    fn injected_theory_error_crashes_from_inside_the_search() {
        fault::install(fault::FaultPlan::new().inject(0, FaultKind::TheoryError));
        // Transitivity is invisible to the propositional skeleton, so the
        // refutation search must reach a theory-consistency check.
        let mut p = Problem::new();
        p.hypothesis(x().lt(&y()));
        p.hypothesis(y().lt(&Term::int(3)));
        p.goal(x().lt(&Term::int(3)));
        let outcome = p.prove_isolated();
        fault::clear();
        assert!(outcome.is_crashed(), "{outcome:?}");
        assert!(
            outcome
                .crash_message()
                .unwrap()
                .contains("theory-solver failure"),
            "{outcome:?}"
        );
        // The same problem proves once the plan is gone.
        assert!(p.prove_isolated().is_proved());
    }

    // ---- shared theory / tuning / worker-reuse determinism ----

    fn sign_lemma() -> Formula {
        let a = Term::var("a", Sort::Int);
        let b = Term::var("b", Sort::Int);
        Formula::forall(
            vec![
                (stq_util::Symbol::intern("a"), Sort::Int),
                (stq_util::Symbol::intern("b"), Sort::Int),
            ],
            vec![vec![a.mul(&b)]],
            Formula::and(vec![a.gt0(), b.gt0()]).implies(a.mul(&b).gt0()),
        )
    }

    /// A mixed batch exercising instantiation, case splits, EUF, FM, and
    /// a refutation, all against one shared theory.
    fn theory_batch() -> (Arc<Theory>, Vec<Problem>) {
        let theory = Arc::new(Theory::new(vec![sign_lemma()]));
        let mut problems = Vec::new();
        let mut p = Problem::new();
        p.set_theory(Arc::clone(&theory));
        p.hypothesis(x().gt0());
        p.hypothesis(y().gt0());
        p.goal(x().mul(&y()).gt0());
        problems.push(p);
        let mut p = Problem::new();
        p.set_theory(Arc::clone(&theory));
        p.hypothesis(x().lt(&y()));
        p.hypothesis(y().lt(&Term::int(3)));
        p.goal(x().lt(&Term::int(3)));
        problems.push(p);
        let mut p = Problem::new();
        p.set_theory(Arc::clone(&theory));
        p.hypothesis(x().gt0());
        p.hypothesis(y().gt0());
        p.goal(x().sub(&y()).gt0()); // refuted
        problems.push(p);
        (theory, problems)
    }

    /// The counters that must be identical across shared and inline
    /// theories, workers, and job counts under one tuning: zeroes wall
    /// time, `merges`/`fm_eliminations` (which measure *how* a leaf
    /// verdict was computed) and the theory-prep/interning ledgers
    /// (which measure the preprocessing the tunings exist to vary).
    fn seed_counters(stats: &ProverStats) -> ProverStats {
        ProverStats {
            theory_preps: 0,
            theory_reuses: 0,
            interned_terms: 0,
            intern_hits: 0,
            merges: 0,
            fm_eliminations: 0,
            ..stats.without_wall()
        }
    }

    fn verdict(o: &Outcome) -> String {
        match o {
            Outcome::Proved { .. } => "proved".into(),
            Outcome::Refuted { model, .. } => format!("refuted:{model:?}"),
            Outcome::ResourceOut { resource, .. } => format!("out:{resource:?}"),
            Outcome::Crashed { message, .. } => format!("crashed:{message}"),
        }
    }

    #[test]
    fn theory_axioms_prove_like_inline_axioms() {
        let theory = Arc::new(Theory::new(vec![sign_lemma()]));
        let mut shared = Problem::new();
        shared.set_theory(theory);
        shared.hypothesis(x().gt0());
        shared.hypothesis(y().gt0());
        shared.goal(x().mul(&y()).gt0());
        let mut inline = Problem::new();
        inline.axiom(sign_lemma());
        inline.hypothesis(x().gt0());
        inline.hypothesis(y().gt0());
        inline.goal(x().mul(&y()).gt0());
        let a = shared.prove();
        let b = inline.prove();
        assert_eq!(verdict(&a), verdict(&b));
        assert_eq!(seed_counters(a.stats()), seed_counters(b.stats()));
        // The shared path reuses the prepared core; the inline path
        // preprocessed its axioms itself.
        assert_eq!(a.stats().theory_reuses, 1);
        assert_eq!(a.stats().theory_preps, 0);
        assert_eq!(b.stats().theory_preps, 1);
    }

    #[test]
    fn tuning_never_changes_verdicts_or_seed_counters() {
        let (_theory, problems) = theory_batch();
        let combos = [
            SolverTuning::default(),
            SolverTuning {
                share_theory: true,
                hash_cons: false,
            },
            SolverTuning {
                share_theory: false,
                hash_cons: true,
            },
            SolverTuning::legacy(),
        ];
        for template in &problems {
            let mut legacy = template.clone();
            legacy.tuning = SolverTuning::legacy();
            let baseline = legacy.prove();
            let base = baseline.stats();
            let pruned = template.clone().prove();
            for tuning in combos {
                let mut p = template.clone();
                p.tuning = tuning;
                let outcome = p.prove();
                let s = outcome.stats();
                assert_eq!(
                    verdict(&outcome),
                    verdict(&baseline),
                    "verdict drifted under {tuning:?}"
                );
                // Every tuning reaches the same first consistent leaf
                // each round: the E-matching trace and clause growth
                // are reproduced exactly.
                assert_eq!(
                    (s.rounds, s.instantiations, &s.instantiations_by_trigger),
                    (
                        base.rounds,
                        base.instantiations,
                        &base.instantiations_by_trigger
                    ),
                    "instantiation trace drifted under {tuning:?}"
                );
                assert_eq!(
                    (s.ematch_candidates, s.clauses, s.max_clauses),
                    (base.ematch_candidates, base.clauses, base.max_clauses),
                    "clause growth drifted under {tuning:?}"
                );
                if tuning.hash_cons {
                    // Every tuning with the template e-graph runs the same
                    // pruned search: `share_theory` must not move a counter.
                    assert_eq!(
                        seed_counters(s),
                        seed_counters(pruned.stats()),
                        "pruned search drifted under {tuning:?}"
                    );
                    // The EUF node checks prune the legacy search tree.
                    assert!(
                        s.decisions <= base.decisions,
                        "{tuning:?}: {s:?} vs {base:?}"
                    );
                    assert!(
                        s.propagations <= base.propagations,
                        "{tuning:?}: {s:?} vs {base:?}"
                    );
                    assert!(
                        s.conflicts <= base.conflicts,
                        "{tuning:?}: {s:?} vs {base:?}"
                    );
                    // Full-leaf checks are a subset of the legacy ones;
                    // each decision and each pruned node adds one node
                    // check on top.
                    assert!(
                        s.theory_checks <= base.theory_checks + s.decisions + s.conflicts,
                        "{tuning:?}: {s:?} vs {base:?}"
                    );
                } else {
                    // Without the template e-graph the search is the
                    // legacy one, node for node.
                    assert_eq!(
                        (s.decisions, s.propagations, s.conflicts, s.theory_checks),
                        (
                            base.decisions,
                            base.propagations,
                            base.conflicts,
                            base.theory_checks
                        ),
                        "search drifted under {tuning:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn node_checks_prune_at_the_first_congruence_conflict() {
        // c = 1 ∨ c = 2, f(c) = 5, (c = 1 ⇒ f(1) = 3) ⊢ c = 2. The c = 1
        // branch conflicts in congruence closure as soon as c = 1 and
        // f(1) = 3 are assigned, before the remaining split on
        // p ∨ q is decided; the legacy search enumerates that split and
        // rejects each leaf separately.
        let c = Term::cnst("c");
        let f = |t: Term| Term::app("f", vec![t]);
        let p = Formula::pred("pn", vec![]);
        let q = Formula::pred("qn", vec![]);
        let mut problem = Problem::new();
        problem.hypothesis(Formula::or(vec![c.eq(&Term::int(1)), c.eq(&Term::int(2))]));
        problem.hypothesis(f(c.clone()).eq(&Term::int(5)));
        problem.hypothesis(
            c.eq(&Term::int(1))
                .implies(f(Term::int(1)).eq(&Term::int(3))),
        );
        problem.hypothesis(Formula::or(vec![p.clone(), q.clone()]));
        problem.hypothesis(Formula::or(vec![p.negate(), q.negate()]));
        problem.goal(c.eq(&Term::int(2)));
        let pruned = problem.prove();
        problem.tuning = SolverTuning::legacy();
        let legacy = problem.prove();
        assert!(pruned.is_proved() && legacy.is_proved());
        let (sp, sl) = (pruned.stats(), legacy.stats());
        assert!(sp.decisions < sl.decisions, "{sp:?} vs {sl:?}");
        assert!(sp.conflicts < sl.conflicts, "{sp:?} vs {sl:?}");
    }

    #[test]
    fn worker_reuse_matches_standalone_proving() {
        let (theory, problems) = theory_batch();
        let mut worker = SolverWorker::new(theory);
        for problem in &problems {
            let reused = worker.prove(problem);
            let standalone = problem.prove();
            assert_eq!(verdict(&reused), verdict(&standalone));
            assert_eq!(
                seed_counters(reused.stats()),
                seed_counters(standalone.stats())
            );
            assert_eq!(reused.stats().theory_reuses, 1);
            assert_eq!(reused.stats().theory_preps, 0);
        }
    }

    #[test]
    fn worker_falls_back_for_foreign_theories() {
        let (theory, _) = theory_batch();
        let mut worker = SolverWorker::new(theory);
        // A problem with a *different* theory instance must not reuse the
        // resident core.
        let other = Arc::new(Theory::new(vec![sign_lemma()]));
        let mut p = Problem::new();
        p.set_theory(other);
        p.hypothesis(x().gt0());
        p.goal(x().gt0());
        let outcome = worker.prove(&p);
        assert!(outcome.is_proved());
        // Falls back to the clone-the-prepared-core path.
        assert_eq!(outcome.stats().theory_reuses, 1);
    }

    #[test]
    fn worker_survives_and_heals_after_contained_panics() {
        let (theory, problems) = theory_batch();
        let mut worker = SolverWorker::new(Arc::clone(&theory));
        let expected: Vec<String> = problems.iter().map(|p| verdict(&p.prove())).collect();

        // Crash the worker mid-batch via an injected panic, then keep
        // proving: the start-of-attempt rollback must heal the core.
        fault::install(fault::FaultPlan::new().inject(1, FaultKind::Panic));
        let first = worker.prove_isolated(&problems[0]);
        let crashed = worker.prove_isolated(&problems[1]);
        let healed = worker.prove_isolated(&problems[2]);
        fault::clear();
        assert_eq!(verdict(&first), expected[0]);
        assert!(crashed.is_crashed());
        assert_eq!(verdict(&healed), expected[2]);

        // And a full clean pass afterwards still matches.
        for (problem, want) in problems.iter().zip(&expected) {
            assert_eq!(verdict(&worker.prove(problem)), *want);
        }
    }

    #[test]
    fn interning_telemetry_is_populated_in_both_modes() {
        let (_theory, problems) = theory_batch();
        let mut optimized = problems[0].clone();
        optimized.tuning = SolverTuning::default();
        let mut legacy = problems[0].clone();
        legacy.tuning = SolverTuning::legacy();
        let opt_stats = optimized.prove().stats().clone();
        let leg_stats = legacy.prove().stats().clone();
        assert!(opt_stats.interned_terms > 0);
        assert!(leg_stats.interned_terms > 0);
        // Hash-consing makes interning per-attempt instead of per-leaf:
        // far fewer nodes are ever created.
        assert!(
            opt_stats.interned_terms < leg_stats.interned_terms,
            "expected arena sharing to reduce interning: {} vs {}",
            opt_stats.interned_terms,
            leg_stats.interned_terms
        );
    }

    #[test]
    fn theory_fingerprint_matches_inline_axioms() {
        use crate::stats::RetryPolicy;
        let theory = Arc::new(Theory::new(vec![sign_lemma()]));
        let mut shared = Problem::new();
        shared.set_theory(theory);
        shared.hypothesis(x().gt0());
        shared.goal(x().mul(&y()).gt0());
        let mut inline = Problem::new();
        inline.axiom(sign_lemma());
        inline.hypothesis(x().gt0());
        inline.goal(x().mul(&y()).gt0());
        assert_eq!(
            shared.fingerprint(RetryPolicy::none()),
            inline.fingerprint(RetryPolicy::none()),
            "splitting axioms into a shared theory must not change cache keys"
        );
        // Tuning is excluded from the key.
        let mut tuned = shared.clone();
        tuned.tuning = SolverTuning::legacy();
        assert_eq!(
            shared.fingerprint(RetryPolicy::none()),
            tuned.fingerprint(RetryPolicy::none())
        );
    }
}
