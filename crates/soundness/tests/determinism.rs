//! The cold-path determinism suite: the optimized pipeline (shared
//! theory, hash-consed leaf checks, per-worker solver reuse, EUF pruning
//! of the case splits) must be a pure performance change. Verdicts,
//! countermodels, and the `--stats` counter totals have to be
//! byte-identical across `--jobs 1/4/8`, with and without fault
//! injection (`--fault-*-at`) armed; and the legacy tuning
//! ([`SolverTuning::legacy`]) must agree with the optimized default on
//! every verdict, countermodel, and E-matching counter.
//!
//! The default tuning checks congruence closure before every decision
//! and backtracks at the first conflict; the legacy tuning checks the
//! theories only at full leaves. Both reach the same first
//! theory-consistent leaf, so every round, instantiation, and clause
//! matches, but the pruned search does less: its decisions,
//! propagations and conflicts are at most the legacy search's,
//! obligation by obligation, and its theory checks exceed the legacy
//! count by at most one node check per decision or pruned node.
//! `merges`/`fm_eliminations` and
//! the preprocessing/interning ledgers (`theory_preps`/`theory_reuses`,
//! `interned_terms`/`intern_hits`) measure *how* the work was done and
//! are not compared across tunings.

use stq_qualspec::Registry;
use stq_soundness::{
    check_all_pipeline_tuned, fault, Budget, FaultKind, FaultPlan, RetryPolicy, SolverTuning,
    SoundnessReport, Verdict,
};

/// The paper's erroneous `pos` rule (§2.1.3), `E1 - E2` in place of
/// `E1 * E2`, under its own name: the refutation path, with a
/// countermodel to compare.
const SUBTRACTION_POS: &str = "value qualifier subpos(int Expr E)
    case E of
        decl int Const C:
            C, where C > 0
      | decl int Expr E1, E2:
            E1 - E2, where subpos(E1) && subpos(E2)
    invariant value(E) > 0";

/// Builtins, `examples/qualifiers/extra.q`, and [`SUBTRACTION_POS`].
fn mixed_registry() -> Registry {
    let mut registry = Registry::builtins();
    registry
        .add_source(include_str!("../../../examples/qualifiers/extra.q"))
        .expect("extra.q parses");
    registry.add_source(SUBTRACTION_POS).expect("subpos parses");
    registry
}

fn run(
    registry: &Registry,
    jobs: usize,
    retry: RetryPolicy,
    tuning: SolverTuning,
) -> SoundnessReport {
    check_all_pipeline_tuned(registry, Budget::default(), retry, jobs, None, tuning)
}

/// Every qualifier of [`mixed_registry`] is sound (or declares no
/// invariant) except `subpos`, which is refuted with a countermodel.
fn assert_mixed_verdicts(report: &SoundnessReport) {
    for r in &report.reports {
        if r.qualifier.as_str() == "subpos" {
            assert_eq!(r.verdict, Verdict::Unsound, "{report}");
            assert!(
                r.obligations.iter().any(|o| !o.countermodel.is_empty()),
                "{report}"
            );
        } else {
            assert!(
                matches!(r.verdict, Verdict::Sound | Verdict::NoInvariant),
                "{}: {report}",
                r.qualifier
            );
        }
    }
}

/// Asserts two reports are identical modulo wall-clock fields.
fn assert_reports_identical(a: &SoundnessReport, b: &SoundnessReport, what: &str) {
    assert_eq!(a.reports.len(), b.reports.len(), "{what}: report count");
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.qualifier, rb.qualifier, "{what}: qualifier order");
        assert_eq!(ra.verdict, rb.verdict, "{what}: verdict for {}", ra.qualifier);
        for (oa, ob) in ra.obligations.iter().zip(&rb.obligations) {
            assert_eq!(oa.description, ob.description, "{what}: obligation order");
            assert_eq!(oa.proved, ob.proved, "{what}: {}", oa.description);
            assert_eq!(oa.countermodel, ob.countermodel, "{what}: {}", oa.description);
            assert_eq!(oa.resource, ob.resource, "{what}: {}", oa.description);
            assert_eq!(oa.crashed, ob.crashed, "{what}: {}", oa.description);
            assert_eq!(oa.attempts, ob.attempts, "{what}: {}", oa.description);
            assert_eq!(
                oa.stats.without_wall(),
                ob.stats.without_wall(),
                "{what}: stats for {}",
                oa.description
            );
        }
    }
    assert_eq!(
        a.totals.without_wall(),
        b.totals.without_wall(),
        "{what}: totals"
    );
}

#[test]
fn optimized_pipeline_results_are_identical_across_job_counts() {
    let registry = mixed_registry();
    let retry = RetryPolicy::attempts(2);
    let baseline = run(&registry, 1, retry, SolverTuning::default());
    assert_mixed_verdicts(&baseline);
    for jobs in [4, 8] {
        let parallel = run(&registry, jobs, retry, SolverTuning::default());
        assert_reports_identical(&baseline, &parallel, &format!("jobs={jobs}"));
    }
}

#[test]
fn legacy_and_optimized_tunings_agree_on_verdicts_and_prune_the_search() {
    let registry = mixed_registry();
    let retry = RetryPolicy::attempts(2);
    let legacy = run(&registry, 1, retry, SolverTuning::legacy());
    let optimized = run(&registry, 1, retry, SolverTuning::default());
    assert_mixed_verdicts(&legacy);
    assert_eq!(legacy.reports.len(), optimized.reports.len());
    for (rl, ro) in legacy.reports.iter().zip(&optimized.reports) {
        assert_eq!(rl.qualifier, ro.qualifier);
        assert_eq!(rl.verdict, ro.verdict, "verdict for {}", rl.qualifier);
        for (ol, oo) in rl.obligations.iter().zip(&ro.obligations) {
            assert_eq!(ol.description, oo.description);
            assert_eq!(ol.proved, oo.proved, "{}", ol.description);
            assert_eq!(ol.countermodel, oo.countermodel, "{}", ol.description);
            assert_eq!(ol.resource, oo.resource, "{}", ol.description);
            assert_eq!(ol.attempts, oo.attempts, "{}", ol.description);
            // Both searches reach the same first theory-consistent leaf
            // every round, so the E-matching trace and the clause set
            // are reproduced step for step.
            let (sl, so) = (&ol.stats, &oo.stats);
            assert_eq!(sl.rounds, so.rounds, "{}", ol.description);
            assert_eq!(sl.instantiations, so.instantiations, "{}", ol.description);
            assert_eq!(
                sl.instantiations_by_trigger, so.instantiations_by_trigger,
                "{}",
                ol.description
            );
            assert_eq!(sl.ematch_candidates, so.ematch_candidates, "{}", ol.description);
            assert_eq!(sl.clauses, so.clauses, "{}", ol.description);
            assert_eq!(sl.max_clauses, so.max_clauses, "{}", ol.description);
            // The pruned search visits a subset of the legacy search's
            // nodes, and a pruned node's one conflict stands for a
            // subtree that held at least one, so it never does more
            // search work.
            assert!(
                so.decisions <= sl.decisions,
                "{}: {so:?} vs {sl:?}",
                ol.description
            );
            assert!(
                so.propagations <= sl.propagations,
                "{}: {so:?} vs {sl:?}",
                ol.description
            );
            assert!(
                so.conflicts <= sl.conflicts,
                "{}: {so:?} vs {sl:?}",
                ol.description
            );
            // Its full-leaf checks are a subset of the legacy ones too,
            // but each decision and each pruned node adds one node check:
            // where nothing can be pruned the total exceeds the legacy
            // count, by at most that many.
            assert!(
                so.theory_checks <= sl.theory_checks + so.decisions + so.conflicts,
                "{}: {so:?} vs {sl:?}",
                ol.description
            );
        }
    }
    // Pruning must actually happen somewhere in the library.
    assert!(
        optimized.totals.decisions < legacy.totals.decisions,
        "{:?} vs {:?}",
        optimized.totals,
        legacy.totals
    );
    // The preprocessing ledgers must show the modes really differed:
    // legacy re-clausifies the axioms per attempt, the optimized path
    // never does (one worker, theory prepared before the run).
    assert!(legacy.totals.theory_preps > 0, "{:?}", legacy.totals);
    assert_eq!(legacy.totals.theory_reuses, 0, "{:?}", legacy.totals);
    assert_eq!(optimized.totals.theory_preps, 0, "{:?}", optimized.totals);
    assert!(optimized.totals.theory_reuses > 0, "{:?}", optimized.totals);
}

#[test]
fn injected_resource_faults_keep_results_identical_across_job_counts() {
    // Two injected ResourceOut faults with a three-rung retry ladder:
    // even if both land on the same obligation (entry numbering under
    // the pool is scheduling-dependent), it still recovers. A faulted
    // attempt contributes a fixed (empty) stats record and the re-proof
    // reproduces the base search trace, so the *totals* are independent
    // of which obligations drew the faults.
    let retry = RetryPolicy::attempts(3);
    let plan = FaultPlan::new()
        .inject(2, FaultKind::ResourceOut)
        .inject(9, FaultKind::ResourceOut);
    let mut baseline: Option<SoundnessReport> = None;
    for jobs in [1usize, 4, 8] {
        fault::install(plan.clone());
        let report = run(&Registry::builtins(), jobs, retry, SolverTuning::default());
        fault::clear();
        assert!(report.all_sound(), "jobs={jobs}: {report}");
        let attempts: u32 = report
            .reports
            .iter()
            .flat_map(|r| &r.obligations)
            .map(|o| o.attempts)
            .sum();
        assert_eq!(
            attempts as usize,
            report.obligation_count() + 2,
            "jobs={jobs}: each fault costs exactly one extra attempt"
        );
        match &baseline {
            None => baseline = Some(report),
            Some(base) => {
                for (rb, rj) in base.reports.iter().zip(&report.reports) {
                    assert_eq!(rb.qualifier, rj.qualifier);
                    assert_eq!(rb.verdict, rj.verdict, "jobs={jobs}: {}", rb.qualifier);
                }
                assert_eq!(
                    base.totals.without_wall(),
                    report.totals.without_wall(),
                    "jobs={jobs}: stats totals drifted under injected faults"
                );
            }
        }
    }
}

#[test]
fn injected_crashes_are_contained_identically_at_every_job_count() {
    // A panic on solver entry and a theory-solver panic several frames
    // deep: which obligation draws each entry index is
    // scheduling-dependent under the pool (documented in `fault`), but
    // the containment shape is not — exactly two obligations crash,
    // everything else is proved, at every job count.
    let plan = FaultPlan::new()
        .inject(3, FaultKind::Panic)
        .inject(7, FaultKind::TheoryError);
    for jobs in [1usize, 4, 8] {
        fault::install(plan.clone());
        let report = run(
            &Registry::builtins(),
            jobs,
            RetryPolicy::none(),
            SolverTuning::default(),
        );
        fault::clear();
        let crashed = report
            .reports
            .iter()
            .flat_map(|r| &r.obligations)
            .filter(|o| o.crashed.is_some())
            .count();
        assert_eq!(crashed, 2, "jobs={jobs}: exactly the two injected crashes");
        let unproved = report
            .reports
            .iter()
            .flat_map(|r| &r.obligations)
            .filter(|o| !o.proved)
            .count();
        assert_eq!(unproved, 2, "jobs={jobs}: every uninjected obligation proves");
        // Both crashes usually land on different qualifiers, but entry
        // numbering under the pool may put them on the same one.
        let crashed_quals = report
            .reports
            .iter()
            .filter(|r| r.verdict == Verdict::Crashed)
            .count();
        assert!(
            (1..=2).contains(&crashed_quals),
            "jobs={jobs}: {crashed_quals} crashed qualifier(s)"
        );
    }
}
