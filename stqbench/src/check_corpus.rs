//! `check-corpus`: a C programmer compiles with qualifiers. One op is
//! `Session::parse`, then `Session::check_with`, then
//! `Session::instrument` on one program of the corpus; the front end and
//! the typechecker do all the work and the prover does none.

use std::time::Instant;

use stq_core::{CheckOptions, Session};
use stq_qualspec::builtins;
use stq_typecheck::CheckResult;

use crate::gen::{Discipline, Program, Rng};
use crate::{Config, Outcome};

pub const OP: &str = "Session::parse + Session::check_with + Session::instrument on one \
                      corpus program, drawn by seed with fixed shares";

/// How many times each corpus program appears in one round. The shares
/// are fixed so every seed measures the same mix; the paper-scale
/// programs are weighted up so the median and p90 fall inside groups of
/// like-sized programs rather than on a boundary between sizes.
pub fn weight(p: &Program) -> usize {
    match p.name.as_str() {
        "grep-dfa" | "grep-dfa-direct" | "bftpd" => 4,
        _ => 1,
    }
}

/// One session per qualifier discipline, as the paper's experiments
/// load one discipline each (§6).
fn setup(cfg: &mut Config) -> Result<Vec<Session>, String> {
    let t = &mut cfg.tracer;
    t.enter("setup", 0);
    let sessions = Discipline::ALL
        .iter()
        .map(|d| {
            t.span("qualspec.define", 0, || {
                if *d == Discipline::Builtins {
                    return Ok(Session::with_builtins());
                }
                let mut s = Session::new();
                for q in d.quals() {
                    let (_, src) = builtins::ALL
                        .iter()
                        .find(|(n, _)| n == q)
                        .ok_or_else(|| format!("no builtin `{q}`"))?;
                    s.define_qualifiers(src).map_err(|e| e.to_string())?;
                }
                Ok(s)
            })
        })
        .collect();
    t.exit();
    sessions
}

/// Differences between a check result and the program's known answer.
pub fn judge(p: &Program, r: &CheckResult) -> Vec<String> {
    let mut out = Vec::new();
    if r.diags.has_errors() {
        out.push(format!("{}: base type errors:\n{}", p.name, r.diags));
    }
    if r.stats.qualifier_errors != p.expect_errors {
        out.push(format!(
            "{}: {} qualifier errors, expected {}",
            p.name, r.stats.qualifier_errors, p.expect_errors
        ));
    }
    if let Some(casts) = p.expect_casts {
        if r.stats.casts != casts {
            out.push(format!(
                "{}: {} casts, expected {casts}",
                p.name, r.stats.casts
            ));
        }
    }
    out
}

pub fn run(cfg: &mut Config, corpus: &[Program]) -> Outcome {
    let mut out = Outcome::new("check-corpus", OP);
    let Some(sessions) = out.set_up(cfg, |cfg, _| setup(cfg), |_| Ok(())) else {
        return out;
    };
    let round: Vec<&Program> = corpus
        .iter()
        .flat_map(|p| std::iter::repeat_n(p, weight(p)))
        .collect();
    let mut order = round.clone();
    let mut rng = Rng::new(cfg.seed ^ 0xc4ec);
    let traced = cfg.tracer.is_on();
    let (mut lines, mut parse_s) = (0usize, 0.0f64);
    let (mut exprs, mut matches, mut memo_hits, mut memo_total) = (0u64, 0u64, 0u64, 0u64);
    out.measure(cfg, |cfg, op| {
        let k = op as usize % order.len();
        if k == 0 {
            rng.shuffle(&mut order);
        }
        let p = order[k];
        let session = &sessions[p.discipline.index()];
        let opts = CheckOptions {
            flow_sensitive: p.flow_sensitive,
        };
        let t = &mut cfg.tracer;
        t.enter("op", op);
        let start = Instant::now();
        let parsed = t.span("cir.parse", op, || session.parse(&p.source));
        let parse_end = start.elapsed();
        // Results stay alive until after the op, so freeing the trees
        // is not timed as part of any layer.
        let outcome = parsed.map(|program| {
            let result = t.span("typecheck.check_with", op, || {
                session.check_with(&program, opts)
            });
            let instrumented = t.span("typecheck.instrument", op, || session.instrument(&program));
            (program, result, instrumented)
        });
        let wall = start.elapsed();
        t.exit();
        let verdict = match &outcome {
            Ok((_, result, instrumented)) => {
                std::hint::black_box(instrumented);
                if traced {
                    lines += p.lines;
                    parse_s += parse_end.as_secs_f64();
                    exprs += result.stats.exprs_visited;
                    matches += result.stats.match_attempts;
                    memo_hits += result.stats.memo_hits;
                    memo_total += result.stats.memo_hits + result.stats.memo_misses;
                }
                judge(p, result)
            }
            Err(e) => vec![format!("{}: parse error: {e}", p.name)],
        };
        (wall, verdict)
    });
    let round_lines: usize = round.iter().map(|p| p.lines).sum();
    out.work = format!(
        "{} programs per round ({} distinct), {round_lines} source lines per round",
        round.len(),
        corpus.len()
    );
    if !traced {
        return out;
    }
    let ops = out.lat_ms.len().max(1) as f64;
    let by_name = cfg.tracer.self_time_by_name();
    let per_op = |name: &str| by_name.get(name).copied().unwrap_or(0.0) / ops;
    out.layer("cir.parse_ms", "ms", per_op("cir.parse"));
    out.layer(
        "cir.parse_klines_s",
        "klines/s",
        lines as f64 / parse_s.max(1e-9) / 1e3,
    );
    out.layer("typecheck.check_ms", "ms", per_op("typecheck.check_with"));
    out.layer(
        "typecheck.instrument_ms",
        "ms",
        per_op("typecheck.instrument"),
    );
    out.layer("typecheck.exprs_visited", "count", exprs as f64 / ops);
    out.layer("typecheck.match_attempts", "count", matches as f64 / ops);
    out.layer(
        "typecheck.memo_hit_ratio",
        "ratio",
        memo_hits as f64 / memo_total.max(1) as f64,
    );
    out
}
