//! `prove-cold`: a qualifier author re-proves a whole library from
//! scratch. One op is one `Session::prove_all_sound_pipeline` call over
//! the library with `jobs = nproc` and no proof cache, so obligation
//! generation, the solver and the worker pool do all the work.

use std::time::Instant;

use stq_core::reportjson::verdict_slug;
use stq_core::Session;
use stq_soundness::{obligations_for, Budget, RetryPolicy, SoundnessReport};

use crate::gen::{self, Expect, Library};
use crate::measure::mean;
use crate::{Config, Outcome};

pub const OP: &str = "one Session::prove_all_sound_pipeline call over the whole library, \
                      jobs = nproc, no proof cache";

/// Builds the session: builtins, then `extra.q`, then the generated
/// qualifiers, then the well-formedness check.
fn setup(lib: &Library, cfg: &mut Config) -> Result<Session, String> {
    let t = &mut cfg.tracer;
    t.enter("setup", 0);
    let built = (|| {
        let mut session = t.span("qualspec.define", 0, Session::with_builtins);
        t.span("qualspec.define", 0, || {
            session.define_qualifiers(gen::EXTRA_Q)
        })
        .map_err(|e| format!("extra.q: {e}"))?;
        t.span("qualspec.define", 0, || {
            session.define_qualifiers(&lib.generated_source)
        })
        .map_err(|e| format!("generated library: {e}"))?;
        let wf = t.span("qualspec.wf", 0, || session.check_well_formed());
        if wf.has_errors() {
            return Err(format!("library is ill-formed:\n{wf}"));
        }
        Ok(session)
    })();
    t.exit();
    built
}

/// Every verdict that differs from the one the library was built to
/// have. Expected verdicts come from the templates, never the prover.
pub fn judge(expect: &[(String, Expect)], report: &SoundnessReport) -> Vec<String> {
    let mut out = Vec::new();
    if report.reports.len() != expect.len() {
        out.push(format!(
            "{} reports for {} qualifiers",
            report.reports.len(),
            expect.len()
        ));
    }
    for (r, (name, want)) in report.reports.iter().zip(expect) {
        let got = verdict_slug(r.verdict);
        if r.qualifier.as_str() != name || got != want.slug() {
            out.push(format!(
                "{}: `{got}`, expected `{name}` to be `{}`",
                r.qualifier,
                want.slug()
            ));
        }
    }
    out
}

pub fn run(cfg: &mut Config, lib: &Library) -> Outcome {
    let mut out = Outcome::new("prove-cold", OP);
    let Some(session) = out.set_up(cfg, |cfg, _| setup(lib, cfg), |_| Ok(())) else {
        return out;
    };
    let jobs = cfg.jobs;
    let traced = cfg.tracer.is_on();
    let (mut solve, mut slowest, mut util, mut idle) = (vec![], vec![], vec![], vec![]);
    let mut obligations = 0;
    let mut totals = stq_soundness::ProverStats::default();
    out.measure(cfg, |cfg, op| {
        cfg.tracer.enter("op", op);
        let t = Instant::now();
        let report = cfg
            .tracer
            .span("soundness.prove_all_sound_pipeline", op, || {
                session.prove_all_sound_pipeline(Budget::default(), RetryPolicy::none(), jobs, None)
            });
        let wall = t.elapsed();
        cfg.tracer.exit();
        if traced {
            let walls: Vec<f64> = report
                .reports
                .iter()
                .flat_map(|r| &r.obligations)
                .map(|o| o.stats.wall.as_secs_f64() * 1e3)
                .collect();
            let sum: f64 = walls.iter().sum();
            let capacity = wall.as_secs_f64() * 1e3 * jobs as f64;
            solve.push(sum);
            slowest.push(walls.iter().copied().fold(0.0, f64::max));
            util.push(sum / capacity);
            idle.push(capacity - sum);
            totals.absorb(&report.totals);
        }
        obligations = report.obligation_count();
        (wall, judge(&lib.expect, &report))
    });
    out.work = format!(
        "{} qualifiers ({} generated), {obligations} obligations per op",
        lib.expect.len(),
        gen::GENERATED
    );
    out.layer("soundness.obligations", "count", obligations as f64);
    if !traced {
        return out;
    }
    // Obligation generation on the same library, outside the op.
    let mut gen_ms = Vec::new();
    for _ in 0..cfg.setups.max(1) {
        let reg = session.registry();
        let t = Instant::now();
        let n: usize = cfg.tracer.span("soundness.obligations_for", 0, || {
            reg.iter().map(|d| obligations_for(reg, d).len()).sum()
        });
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if n != obligations {
            out.fail(format!(
                "obligations_for made {n} obligations, the pipeline {obligations}"
            ));
        }
    }
    let ops = out.lat_ms.len().max(1) as f64;
    let per_op = |x: u64| x as f64 / ops;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.setup_layer(&cfg.tracer, "qualspec.define", "qualspec.define_ms");
    out.setup_layer(&cfg.tracer, "qualspec.wf", "qualspec.wf_ms");
    out.layer("soundness.obligation_gen_ms", "ms", mean(&gen_ms));
    out.layer("soundness.pool_utilization", "ratio", mean(&util));
    out.layer("soundness.pool_idle_ms", "ms", mean(&idle));
    out.layer("logic.solve_ms", "ms", mean(&solve));
    out.layer("logic.slowest_obligation_ms", "ms", mean(&slowest));
    out.layer("logic.decisions", "count", per_op(totals.decisions));
    out.layer("logic.conflicts", "count", per_op(totals.conflicts));
    out.layer(
        "logic.conflict_ratio",
        "ratio",
        ratio(totals.conflicts, totals.decisions),
    );
    out.layer("logic.theory_checks", "count", per_op(totals.theory_checks));
    out.layer("logic.merges", "count", per_op(totals.merges));
    out.layer(
        "logic.fm_eliminations",
        "count",
        per_op(totals.fm_eliminations),
    );
    out.layer(
        "logic.instantiations",
        "count",
        per_op(totals.instantiations as u64),
    );
    out.layer(
        "logic.ematch_yield",
        "ratio",
        ratio(totals.instantiations as u64, totals.ematch_candidates),
    );
    out.layer(
        "logic.intern_hit_ratio",
        "ratio",
        ratio(
            totals.intern_hits,
            totals.intern_hits + totals.interned_terms,
        ),
    );
    out
}
