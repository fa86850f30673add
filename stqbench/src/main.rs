//! The repository's benchmark: three workloads over the prover, the
//! checker and the daemon, measured end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path stqbench/Cargo.toml -- \
//!     --workload prove-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` runs the named workload untraced and prints the
//! end-to-end metrics. `--trace 1` runs every workload twice — untraced,
//! then traced — and prints every per-layer metric, the tracing overhead
//! of each workload and the unattributed residual of the traced ops; the
//! spans are written to `.stqbench/trace-<workload>-<seed>.jsonl`. The
//! last line of standard output is always one JSON object.

mod check_corpus;
mod gen;
mod measure;
mod prove_cold;
mod serve_mixed;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stq_util::json::Json;

use measure::{beyond, cpu_time, median, peak_rss_kb, percentile};
use trace::Tracer;

/// Names, reasons and layer predictions of the workloads.
struct Workload {
    name: &'static str,
    why: &'static str,
    /// Layer metrics a change should move here, with the end-to-end
    /// metrics they move.
    moves: &'static [(&'static str, &'static str)],
    /// Layers whose changes should move nothing here.
    no_moves: &'static str,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "prove-cold",
        why: "a qualifier author re-proves a whole library from scratch: the prover, \
              obligation generation and the pool do nearly all the work; checker, cache \
              and server do none",
        moves: &[
            ("qualspec.define_ms, qualspec.wf_ms", "setup_s"),
            (
                "soundness.obligations, soundness.obligation_gen_ms",
                "latency_p50_ms",
            ),
            (
                "soundness.pool_utilization, soundness.pool_idle_ms",
                "throughput_ops_s, latency_p50_ms",
            ),
            (
                "logic.solve_ms, logic.slowest_obligation_ms",
                "latency_p50_ms, latency_p90_ms",
            ),
            (
                "logic.decisions, logic.conflicts, logic.conflict_ratio, logic.theory_checks, \
                 logic.merges, logic.fm_eliminations",
                "cpu_ms_per_op",
            ),
            (
                "logic.instantiations, logic.ematch_yield, logic.intern_hit_ratio",
                "cpu_ms_per_op",
            ),
        ],
        no_moves: "typecheck.*, cir.*, core.server.*",
    },
    Workload {
        name: "check-corpus",
        why: "a C programmer compiles with qualifiers: the front end and the typechecker do \
              all the work and the prover none, so a prover change must not move it",
        moves: &[
            ("cir.parse_ms, cir.parse_klines_s", "throughput_ops_s"),
            (
                "typecheck.check_ms, typecheck.instrument_ms, typecheck.exprs_visited, \
                 typecheck.match_attempts, typecheck.memo_hit_ratio",
                "latency_p50_ms, cpu_ms_per_op",
            ),
        ],
        no_moves: "logic.*, core.server.*",
    },
    Workload {
        name: "serve-mixed",
        why: "editors and CI call a warm daemon: reactor, queue, cache reads and journal \
              writes do the work; it uses the cache the opposite way to prove-cold",
        moves: &[
            ("logic.* (the cache-missing proves)", "latency_p99_ms"),
            (
                "typecheck.* (the check requests)",
                "latency_p50_ms, cpu_ms_per_op",
            ),
            (
                "soundness.cache_hit_ratio, soundness.cache_misses, soundness.follow_hits",
                "latency_p50_ms",
            ),
            (
                "core.client.prove_ms, core.client.check_ms, core.client.miss_prove_ms",
                "latency_p50_ms, latency_p99_ms",
            ),
            (
                "core.server.overhead_ms, core.server.dedup_hits, core.server.shed, \
                 core.server.polls_per_request",
                "throughput_ops_s, latency_p99_ms",
            ),
            (
                "core.client.retries, core.client.reconnects",
                "ok_rate (1 - error_rate)",
            ),
        ],
        no_moves: "none: every layer runs here",
    },
];

/// Run settings shared by every workload.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Times the workload's set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// Worker threads: nproc.
    pub jobs: usize,
    /// Scratch space inside the checkout (daemon sockets, journals,
    /// trace files).
    pub work_dir: PathBuf,
    pub tracer: Tracer,
    pub tracer_origin: Instant,
}

impl Config {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Set-ups per untraced pass: a fixed count, so every run does the same
/// set-up work, and enough that the set-up phase lasts a few tenths of a
/// second — a passing burst of load on the machine then cannot move the
/// median. The daemon's set-up (start, warm-up prove, connect) takes
/// that long by itself.
fn setups(workload: &str) -> usize {
    match workload {
        "serve-mixed" => 5,
        "prove-cold" => 2001,
        _ => 20001,
    }
}

/// Traced passes need set-ups only for the per-layer `qualspec` times.
const TRACED_SETUPS: usize = 201;

/// Failure messages kept per run; the rest are only counted.
const KEEP_FAILURES: usize = 8;

/// What one workload pass measured.
pub struct Outcome {
    pub workload: &'static str,
    pub op: &'static str,
    /// The amount of work, printed in the header.
    pub work: String,
    /// Further lines for the header.
    pub notes: Vec<String>,
    pub setups_s: Vec<f64>,
    pub lat_ms: Vec<f64>,
    pub window: Duration,
    pub cpu: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// A set-up or teardown failure: the run is wrong regardless of ops.
    pub broken: bool,
    /// Per-layer metrics: (name, unit, value).
    pub layers: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    pub fn new(workload: &'static str, op: &'static str) -> Outcome {
        Outcome {
            workload,
            op,
            work: String::new(),
            notes: Vec::new(),
            setups_s: Vec::new(),
            lat_ms: Vec::new(),
            window: Duration::ZERO,
            cpu: Duration::ZERO,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            broken: false,
            layers: Vec::new(),
        }
    }

    pub fn fail(&mut self, message: String) {
        self.broken = true;
        self.note_failures(vec![message]);
    }

    pub fn note_failures(&mut self, messages: Vec<String>) {
        let room = KEEP_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(messages.into_iter().take(room));
    }

    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.layers.push((name, unit, value));
    }

    /// Mean self time per set-up of the spans named `span`.
    pub fn setup_layer(&mut self, tracer: &Tracer, span: &str, metric: &'static str) {
        let setups = tracer.spans().iter().filter(|s| s.name == "setup").count();
        let total = tracer.self_time_by_name().get(span).copied().unwrap_or(0.0);
        self.layer(metric, "ms", total / setups.max(1) as f64);
    }

    /// Sets the workload up `cfg.setups` times (at least once), timing
    /// each; the previous set-up is torn down untimed before the next.
    /// Returns the last set-up, or `None` (with the run marked failed) on
    /// an error.
    pub fn set_up<T>(
        &mut self,
        cfg: &mut Config,
        mut setup: impl FnMut(&mut Config, usize) -> Result<T, String>,
        mut teardown: impl FnMut(T) -> Result<(), String>,
    ) -> Option<T> {
        let mut last = None;
        for n in 0..cfg.setups.max(1) {
            if let Some(prev) = last.take() {
                if let Err(e) = teardown(prev) {
                    self.fail(e);
                    return None;
                }
            }
            let t = Instant::now();
            match setup(cfg, n) {
                Ok(up) => last = Some(up),
                Err(e) => {
                    self.fail(e);
                    return None;
                }
            }
            self.setups_s.push(t.elapsed().as_secs_f64());
        }
        last
    }

    pub fn correct(&self) -> bool {
        !self.broken && self.failed == 0
    }

    /// Runs `op` back to back for the configured duration (at least
    /// once). `op` returns the op's wall time and every way its answer
    /// differed from the known one.
    pub fn measure(
        &mut self,
        cfg: &mut Config,
        mut op: impl FnMut(&mut Config, u64) -> (Duration, Vec<String>),
    ) {
        let before = cpu_time();
        let began = Instant::now();
        let end = began + cfg.duration();
        let mut n = 0u64;
        while n == 0 || Instant::now() < end {
            let (wall, bad) = op(cfg, n);
            self.lat_ms.push(wall.as_secs_f64() * 1e3);
            self.attempted += 1;
            if !bad.is_empty() {
                self.failed += 1;
                self.note_failures(bad);
            }
            n += 1;
        }
        self.window = began.elapsed();
        self.cpu = cpu_time().saturating_sub(before);
    }

    fn sorted_latencies(&self) -> Vec<f64> {
        let mut v = self.lat_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The end-to-end metrics: (name, value, unit, how it was measured).
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str, String)> {
        let lat = self.sorted_latencies();
        let n = lat.len();
        let ops = n.max(1) as f64;
        let secs = self.window.as_secs_f64().max(1e-9);
        let tail = |p: f64| format!("{n} samples, {} beyond", beyond(n, p));
        vec![
            (
                "setup_s",
                median(&self.setups_s),
                "s",
                format!("median of {} set-ups", self.setups_s.len()),
            ),
            (
                "throughput_ops_s",
                n as f64 / secs,
                "ops/s",
                format!("{n} ops in {secs:.2} s"),
            ),
            ("latency_p50_ms", percentile(&lat, 50.0), "ms", tail(50.0)),
            ("latency_p90_ms", percentile(&lat, 90.0), "ms", tail(90.0)),
            ("latency_p99_ms", percentile(&lat, 99.0), "ms", tail(99.0)),
            (
                "cpu_ms_per_op",
                self.cpu.as_secs_f64() * 1e3 / ops,
                "ms",
                format!("{:.2} s process CPU over {n} ops", self.cpu.as_secs_f64()),
            ),
            (
                "peak_rss_mb",
                peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
                "MB",
                "peak resident set of the benchmark process (VmHWM)".to_owned(),
            ),
            (
                "ok_rate",
                1.0 - self.error_rate(),
                "ratio",
                format!(
                    "1 - error_rate; error_rate = {} = {} of {} ops wrong, failed or refused",
                    self.error_rate(),
                    self.failed,
                    self.attempted
                ),
            ),
        ]
    }
}

fn usage_exit(message: &str) -> ExitCode {
    eprintln!("stqbench: {message}");
    eprintln!(
        "usage: stqbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory when there is one.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_owned))
                })
                .unwrap_or_else(|| format!("unknown ({r})")),
            None => head,
        },
        None => "unknown (not a git checkout)".to_owned(),
    }
}

/// The seeded inputs of every workload.
struct Inputs {
    lib: gen::Library,
    corpus: Vec<gen::Program>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        Inputs {
            lib: gen::library(seed),
            corpus: gen::corpus(seed),
        }
    }

    /// The size of the inputs, which the seed must not change.
    fn describe(&self) -> String {
        let mut session = stq_core::Session::with_builtins();
        let defined = session
            .define_qualifiers(gen::EXTRA_Q)
            .and_then(|_| session.define_qualifiers(&self.lib.generated_source));
        let obligations = match defined {
            Ok(_) => session
                .registry()
                .iter()
                .map(|d| stq_soundness::obligation_specs(d).len())
                .sum::<usize>()
                .to_string(),
            Err(e) => format!("unknown ({e})"),
        };
        format!(
            "library {} qualifiers, soundness.obligations {obligations}; corpus {} programs, \
             {} source lines",
            self.lib.expect.len(),
            self.corpus.len(),
            self.corpus.iter().map(|p| p.lines).sum::<usize>()
        )
    }
}

fn run_workload(name: &str, cfg: &mut Config, inputs: &Inputs) -> Outcome {
    match name {
        "prove-cold" => prove_cold::run(cfg, &inputs.lib),
        "check-corpus" => check_corpus::run(cfg, &inputs.corpus),
        _ => serve_mixed::run(cfg, &inputs.lib, &inputs.corpus),
    }
}

fn header(w: &Workload, seed: u64, seconds: f64, trace: bool, jobs: usize) {
    println!(
        "# stqbench workload={} seed={seed} seconds={seconds} trace={}",
        w.name,
        u8::from(trace)
    );
    println!(
        "# nproc={jobs} profile={} git_rev={}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_rev()
    );
    // A traced run measures every workload, so it describes them all.
    let described =
        std::iter::once(w).chain(WORKLOADS.iter().filter(|x| trace && x.name != w.name));
    for x in described {
        println!("# [{}] why: {}", x.name, x.why);
        for (layer, e2e) in x.moves {
            println!("# [{}] moves: {layer} -> {e2e}", x.name);
        }
        println!("# [{}] no-moves: {}", x.name, x.no_moves);
    }
}

fn print_outcome(o: &Outcome) {
    println!("# [{}] op: {}", o.workload, o.op);
    println!("# [{}] work: {}", o.workload, o.work);
    for n in &o.notes {
        println!("# [{}] {n}", o.workload);
    }
    for f in &o.failures {
        println!("# [{}] FAILED: {f}", o.workload);
    }
}

/// A value for the human-readable lines: four decimals, or scientific
/// notation for small magnitudes.
fn show(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".to_owned(), num(value)),
        ("unit".to_owned(), Json::Str(unit.to_owned())),
    ])
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) {
    let doc = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Num(attempted as f64)),
        ("failed".to_owned(), Json::Num(failed as f64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ]);
    println!("{doc}");
}

fn untraced(w: &Workload, mut cfg: Config, inputs: &Inputs) -> ExitCode {
    let o = run_workload(w.name, &mut cfg, inputs);
    print_outcome(&o);
    let mut metrics = Vec::new();
    for (name, value, unit, how) in o.end_to_end() {
        println!("{name:<18} {:>14} {unit:<6} ({how})", show(value));
        metrics.push((name.to_owned(), metric(value, unit)));
    }
    result_line(o.correct(), o.attempted, o.failed, metrics);
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One untraced and one traced pass of every workload, the named one
/// first; the run's seconds are split evenly over the six passes.
fn traced(first: &Workload, mut cfg: Config, inputs: &Inputs) -> ExitCode {
    let seconds = cfg.seconds;
    let order = std::iter::once(first).chain(WORKLOADS.iter().filter(|w| w.name != first.name));
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut layers: Vec<(String, &str, f64)> = Vec::new();
    let mut spans = String::new();
    for w in order {
        cfg.seconds = seconds / 6.0;
        cfg.setups = setups(w.name).min(TRACED_SETUPS);
        let mut passes = Vec::new();
        for on in [false, true] {
            cfg.tracer = Tracer::new(on, cfg.tracer_origin);
            let o = run_workload(w.name, &mut cfg, inputs);
            print_outcome(&o);
            correct &= o.correct();
            attempted += o.attempted;
            failed += o.failed;
            passes.push(o);
        }
        let (plain, traced) = (&passes[0], &passes[1]);
        let p50 = |o: &Outcome| percentile(&o.sorted_latencies(), 50.0);
        let overhead = (p50(traced) - p50(plain)) / p50(plain).max(1e-9) * 100.0;
        println!(
            "# [{}] tracing overhead: p50 {:.4} ms traced vs {:.4} ms untraced ({overhead:+.2}%; {} vs {} ops)",
            w.name,
            p50(traced),
            p50(plain),
            traced.lat_ms.len(),
            plain.lat_ms.len()
        );
        for (name, unit, value) in &traced.layers {
            layers.push(((*name).to_owned(), unit, *value));
        }
        layers.push((format!("trace.{}.overhead_pct", w.name), "%", overhead));
        if w.name != "serve-mixed" {
            // The op span's own self time is the part of the op no layer
            // span covers: the unattributed residual.
            let times = cfg.tracer.self_times();
            let (mut op_wall, mut residual, mut attributed, mut ops) = (0.0, 0.0, 0.0, 0usize);
            let st = cfg.tracer.spans();
            for (i, s) in st.iter().enumerate() {
                if s.name == "op" {
                    ops += 1;
                    op_wall += s.dur_ms();
                    residual += times[i];
                } else if s.parent.is_some_and(|p| st[p].name == "op") {
                    attributed += times[i];
                }
            }
            println!(
                "# [{}] layer self times {attributed:.3} ms + residual {residual:.3} ms = traced op wall {op_wall:.3} ms over {ops} ops",
                w.name
            );
            layers.push((
                format!("trace.{}.residual_ms", w.name),
                "ms",
                residual / ops.max(1) as f64,
            ));
        }
        spans.push_str(&cfg.tracer.to_jsonl());
    }
    let path = cfg
        .work_dir
        .join(format!("trace-{}-{}.jsonl", first.name, cfg.seed));
    match std::fs::write(&path, spans) {
        Ok(()) => println!("# spans: {}", path.display()),
        Err(e) => {
            println!("# spans not written: {}: {e}", path.display());
            correct = false;
        }
    }
    let mut metrics = Vec::new();
    for (name, unit, value) in layers {
        println!("{name:<36} {:>14} {unit}", show(value));
        metrics.push((name, metric(value, unit)));
    }
    result_line(correct, attempted, failed, metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage_exit(&format!("`{flag}` needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().find(|w| w.name == value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage_exit(&format!("unknown flag `{flag}`")),
        }
    }
    let (Some(w), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace) else {
        return usage_exit("every flag is required, with a valid value");
    };
    let work_dir = PathBuf::from(".stqbench");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        return usage_exit(&format!("cannot create {}: {e}", work_dir.display()));
    }
    let jobs = stq_util::pool::default_jobs();
    header(w, seed, seconds, trace, jobs);
    let inputs = Inputs::new(seed);
    println!("# inputs: {}", inputs.describe());
    let origin = Instant::now();
    let cfg = Config {
        seed,
        seconds,
        setups: setups(w.name),
        jobs,
        work_dir,
        tracer: Tracer::new(false, origin),
        tracer_origin: origin,
    };
    if trace {
        traced(w, cfg, &inputs)
    } else {
        untraced(w, cfg, &inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, traced: bool) -> Config {
        let dir = PathBuf::from(".stqbench").join(format!("test-{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let origin = Instant::now();
        Config {
            seed,
            seconds: 0.2,
            setups: 1,
            jobs: 2,
            work_dir: dir,
            tracer: Tracer::new(traced, origin),
            tracer_origin: origin,
        }
    }

    #[test]
    fn every_workload_is_correct_at_a_tiny_size() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            for traced in [false, true] {
                let seed = 10 + i as u64;
                let o = run_workload(w.name, &mut tiny(seed, traced), &Inputs::new(seed));
                assert!(o.correct(), "{}: {:?}", w.name, o.failures);
                assert_eq!(o.error_rate(), 0.0);
                assert!(o.attempted >= 1);
                if traced {
                    assert!(!o.layers.is_empty(), "{}", w.name);
                }
            }
        }
    }

    #[test]
    fn a_flipped_expected_verdict_fails_prove_cold() {
        let mut lib = gen::library(3);
        let i = lib
            .expect
            .iter()
            .position(|(n, _)| n.starts_with("bq_lo"))
            .unwrap();
        lib.expect[i].1 = gen::Expect::Unsound;
        let o = prove_cold::run(&mut tiny(3, false), &lib);
        assert!(!o.correct());
        assert_eq!(o.failed, o.attempted, "every op carries the wrong verdict");
        assert!(o.failures[0].contains(&lib.expect[i].0), "{:?}", o.failures);
    }

    #[test]
    fn an_off_by_one_diagnostic_count_fails_check_corpus() {
        let mut corpus = gen::corpus(4);
        let bftpd = corpus.iter_mut().find(|p| p.name == "bftpd").unwrap();
        bftpd.expect_errors += 1;
        let o = check_corpus::run(&mut tiny(4, false), &corpus);
        assert!(!o.correct());
        assert!(o.failed > 0);
        assert!(o.failures[0].contains("bftpd"), "{:?}", o.failures);
    }

    #[test]
    fn serve_mixed_reports_both_planted_errors() {
        // Plant the count on the program the first client checks first,
        // so even a very short run reaches it.
        let mut corpus = gen::corpus(5);
        let checks = serve_mixed::check_set(&corpus);
        let served = gen::library(5).expect.len() - gen::EXTRA_EXPECT.len();
        let first = gen::serve_mix(5, 0, served, checks.len())
            .into_iter()
            .find_map(|r| match r {
                gen::Request::Check(i) => Some(checks[i].name.clone()),
                _ => None,
            })
            .unwrap();
        corpus
            .iter_mut()
            .find(|p| p.name == first)
            .unwrap()
            .expect_errors += 1;
        let mut cfg = tiny(5, false);
        cfg.seconds = 2.0;
        let o = serve_mixed::run(&mut cfg, &gen::library(5), &corpus);
        assert!(!o.correct() && o.failed > 0, "{:?}", o.failures);
        let mut lib = gen::library(5);
        let i = lib
            .expect
            .iter()
            .position(|(n, _)| n.starts_with("bq_sub"))
            .unwrap();
        lib.expect[i].1 = gen::Expect::Sound;
        let o = serve_mixed::run(&mut tiny(5, false), &lib, &gen::corpus(5));
        assert!(
            !o.correct(),
            "the warm-up prove must catch the flipped verdict"
        );
    }
}
