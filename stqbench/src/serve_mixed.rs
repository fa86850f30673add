//! `serve-mixed`: editors and CI call a warm daemon. A closed loop of
//! `min(2, nproc)` clients, one connection each, against an in-process
//! `Server` on a Unix socket with a cache-dir journal. The reactor, the
//! queue, cache lookups and journal appends do the work.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stq_core::{
    CallOutcome, CancelToken, Client, ClientConfig, ClientStats, ServeConfig, Server, Session,
    ShutdownKind,
};
use stq_util::json::{escape, Json};

use crate::gen::{self, Discipline, Expect, Library, Program, Request};
use crate::measure::percentile;
use crate::trace::Tracer;
use crate::{Config, Outcome};

pub const OP: &str = "one request/response on a warm in-process daemon over a Unix socket \
                      (80% warm prove of 4 named qualifiers, 15% check, 5% prove of 2 \
                      qualifiers under a never-used budget)";

/// The programs `check` requests send: every corpus program whose known
/// answer holds under the daemon's full library. The `unique` program
/// is left out: it dereferences its global without `nonnull`, so the
/// full library's `nonnull` restrict rule flags it, and its table count
/// holds only under its own discipline.
pub fn check_set(corpus: &[Program]) -> Vec<Program> {
    corpus
        .iter()
        .filter(|p| p.discipline != Discipline::Unique)
        .cloned()
        .collect()
}

/// A running daemon and the control connection used for warm-up,
/// `stats` and `shutdown`.
struct Daemon {
    thread: JoinHandle<std::io::Result<ShutdownKind>>,
    socket: PathBuf,
    control: Client,
    dir: PathBuf,
}

fn connect(socket: &Path) -> Client {
    Client::new(ClientConfig {
        connect_timeout: Duration::from_secs(10),
        ..ClientConfig::unix(socket)
    })
}

fn call(client: &mut Client, method: &str, params: Option<&str>) -> Result<Json, String> {
    match client.call(method, params, None) {
        Ok(CallOutcome { doc, raw }) => match doc.get("result") {
            Some(result) if doc.get("ok").and_then(Json::as_bool) == Some(true) => {
                Ok(result.clone())
            }
            _ => Err(format!("`{method}` refused: {raw}")),
        },
        Err(e) => Err(format!("`{method}`: {e}")),
    }
}

fn start(cfg: &Config, lib: &Library, dir: PathBuf) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut session = Session::with_builtins();
    session
        .define_qualifiers(&lib.generated_source)
        .map_err(|e| format!("generated library: {e}"))?;
    let serve = ServeConfig {
        jobs: cfg.jobs,
        cache_dir: Some(dir.join("cache")),
        ..ServeConfig::default()
    };
    let server = Server::new(session, serve, CancelToken::new())
        .map_err(|e| format!("daemon start: {e}"))?;
    let server = Arc::new(server);
    let socket = dir.join("d.sock");
    let thread = {
        let socket = socket.clone();
        std::thread::spawn(move || server.run_unix(&socket))
    };
    let control = connect(&socket);
    Ok(Daemon {
        thread,
        socket,
        control,
        dir,
    })
}

fn stop(mut d: Daemon) -> Result<(), String> {
    let asked = call(&mut d.control, "shutdown", None);
    let ended = d.thread.join();
    let _ = std::fs::remove_dir_all(&d.dir);
    asked?;
    match ended {
        Ok(Ok(ShutdownKind::Requested)) => Ok(()),
        Ok(Ok(kind)) => Err(format!("daemon ended {kind:?}")),
        Ok(Err(e)) => Err(format!("daemon: {e}")),
        Err(_) => Err("daemon thread panicked".to_owned()),
    }
}

fn names_json(lib: &Library, names: &[usize]) -> String {
    let quoted: Vec<String> = names
        .iter()
        .map(|&i| format!("\"{}\"", escape(&lib.expect[i].0)))
        .collect();
    format!("[{}]", quoted.join(","))
}

/// Differences between a `prove` result and the expected verdicts of the
/// requested qualifiers, in request order. Only verdict fields are
/// compared — never timings or whole bodies.
pub fn judge_prove(expect: &[(&str, Expect)], result: &Json) -> Vec<String> {
    let mut out = Vec::new();
    if result.get("interrupted").and_then(Json::as_bool) != Some(false) {
        out.push("prove was interrupted".to_owned());
    }
    let quals = result
        .get("qualifiers")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    if quals.len() != expect.len() {
        out.push(format!(
            "{} verdicts for {} names",
            quals.len(),
            expect.len()
        ));
    }
    for (q, (name, want)) in quals.iter().zip(expect) {
        let got_name = q.get("name").and_then(Json::as_str).unwrap_or("?");
        let got = q.get("verdict").and_then(Json::as_str).unwrap_or("?");
        if got_name != *name || got != want.slug() {
            out.push(format!(
                "{got_name}: `{got}`, expected `{name}` to be `{}`",
                want.slug()
            ));
        }
    }
    out
}

/// Differences between a `check` result and the program's known answer.
pub fn judge_check(p: &Program, result: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let syntax = result
        .get("syntax_errors")
        .and_then(Json::as_array)
        .map_or(1, <[Json]>::len);
    if syntax != 0 {
        out.push(format!("{}: {syntax} syntax errors", p.name));
    }
    let stats = result.get("stats");
    let field = |k: &str| stats.and_then(|s| s.get(k)).and_then(Json::as_u64);
    let errors = field("qualifier_errors");
    if errors != Some(p.expect_errors as u64) {
        out.push(format!(
            "{}: {errors:?} qualifier errors, expected {}",
            p.name, p.expect_errors
        ));
    }
    if let Some(casts) = p.expect_casts {
        if field("casts") != Some(casts as u64) {
            out.push(format!(
                "{}: {:?} casts, expected {casts}",
                p.name,
                field("casts")
            ));
        }
    }
    out
}

/// Request kinds, as the per-kind latency lines name them.
const KINDS: [&str; 3] = ["warm prove", "check", "missing prove"];

/// What one client thread saw.
struct ClientRun {
    lat_ms: Vec<f64>,
    /// Latencies split by request kind, in [`KINDS`] order.
    by_kind: [Vec<f64>; 3],
    /// Client latency minus the daemon's reported execution time, for
    /// every `prove` request.
    overhead_ms: Vec<f64>,
    failures: Vec<String>,
    failed: u64,
    stats: ClientStats,
    elapsed: Duration,
}

struct Shared<'a> {
    lib: &'a Library,
    checks: &'a [Program],
    deadline: Instant,
    clients: usize,
}

fn drive(
    sh: &Shared,
    idx: usize,
    mut client: Client,
    reqs: &[Request],
    mut t: Tracer,
) -> (ClientRun, Tracer) {
    let start = Instant::now();
    let mut run = ClientRun {
        lat_ms: Vec::new(),
        by_kind: Default::default(),
        overhead_ms: Vec::new(),
        failures: Vec::new(),
        failed: 0,
        stats: ClientStats::default(),
        elapsed: Duration::ZERO,
    };
    let mut misses = 0u64;
    for (n, req) in reqs.iter().cycle().enumerate() {
        if Instant::now() >= sh.deadline {
            break;
        }
        let op = (n * sh.clients + idx) as u64;
        let (kind, span, method, params) = match req {
            Request::Warm(names) => (
                0,
                "core.client.prove",
                "prove",
                format!("{{\"names\":{}}}", names_json(sh.lib, names)),
            ),
            Request::Check(i) => {
                let p = &sh.checks[*i];
                (
                    1,
                    "core.client.check",
                    "check",
                    format!(
                        "{{\"source\":\"{}\",\"flow_sensitive\":{}}}",
                        escape(&p.source),
                        p.flow_sensitive
                    ),
                )
            }
            Request::Miss(names) => {
                // A budget no request has used before: above the default
                // instantiation cap, unique per client and per request.
                misses += 1;
                let cap = 5000 + misses * sh.clients as u64 + idx as u64;
                (
                    2,
                    "core.client.miss_prove",
                    "prove",
                    format!(
                        "{{\"names\":{},\"budget\":{{\"max_instantiations\":{cap}}}}}",
                        names_json(sh.lib, names)
                    ),
                )
            }
        };
        t.enter("op", op);
        let began = Instant::now();
        let answer = t.span(span, op, || call(&mut client, method, Some(&params)));
        let lat = began.elapsed().as_secs_f64() * 1e3;
        t.exit();
        run.lat_ms.push(lat);
        run.by_kind[kind].push(lat);
        let bad = match (&answer, req) {
            (Err(e), _) => vec![e.clone()],
            (Ok(result), Request::Check(i)) => judge_check(&sh.checks[*i], result),
            (Ok(result), Request::Warm(names) | Request::Miss(names)) => {
                let exec: f64 = result
                    .get("qualifiers")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|q| q.get("wall_ms").and_then(Json::as_f64))
                    .sum();
                run.overhead_ms.push(lat - exec);
                let expect: Vec<(&str, Expect)> = names
                    .iter()
                    .map(|&i| (sh.lib.expect[i].0.as_str(), sh.lib.expect[i].1))
                    .collect();
                judge_prove(&expect, result)
            }
        };
        if !bad.is_empty() {
            run.failed += 1;
            run.failures.extend(bad);
        }
    }
    run.elapsed = start.elapsed();
    run.stats = client.stats();
    (run, t)
}

/// Daemon counters the per-layer metrics difference across the window.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    hits: f64,
    misses: f64,
    follow_hits: f64,
    dedup_hits: f64,
    shed: f64,
    polls: f64,
    requests: f64,
}

fn counters(control: &mut Client) -> Result<Counters, String> {
    let s = call(control, "stats", None)?;
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&s, |v, k| v.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok(Counters {
        hits: num(&["cache", "hits"]),
        misses: num(&["cache", "misses"]),
        follow_hits: num(&["cache", "follow_hits"]),
        dedup_hits: num(&["dedup_hits"]),
        shed: num(&["shed"]),
        polls: num(&["reactor", "polls"]),
        requests: num(&["requests", "total"]),
    })
}

/// Starts a daemon, warms its cache with one prove of the whole library
/// (checked against the expected verdicts) and connects the clients.
fn setup(cfg: &mut Config, lib: &Library, n: usize) -> Result<(Daemon, Vec<Client>), String> {
    cfg.tracer.enter("setup", 0);
    let up = (|| {
        let dir = cfg
            .work_dir
            .join(format!("serve-{}-{n}", std::process::id()));
        let mut d = start(cfg, lib, dir)?;
        let warm = call(
            &mut d.control,
            "prove",
            Some(&format!("{{\"jobs\":{}}}", cfg.jobs)),
        )?;
        let expect: Vec<(&str, Expect)> = lib
            .expect
            .iter()
            .map(|(name, e)| (name.as_str(), *e))
            .collect();
        let bad = judge_prove(&expect, &warm);
        if !bad.is_empty() {
            let _ = stop(d);
            return Err(format!("warm-up prove: {}", bad.join("; ")));
        }
        let clients = (0..cfg.jobs.clamp(1, 2))
            .map(|_| connect(&d.socket))
            .collect();
        Ok((d, clients))
    })();
    cfg.tracer.exit();
    up
}

pub fn run(cfg: &mut Config, lib: &Library, corpus: &[Program]) -> Outcome {
    let mut out = Outcome::new("serve-mixed", OP);
    // The daemon serves builtins + generated qualifiers; `extra.q` stays
    // out because its names (`user`, `digit`, ...) would become keywords
    // in the checked programs.
    let lib = &Library {
        generated_source: lib.generated_source.clone(),
        expect: lib
            .expect
            .iter()
            .filter(|(name, _)| !gen::EXTRA_EXPECT.iter().any(|(x, _)| x == name))
            .cloned()
            .collect(),
    };
    let checks = check_set(corpus);
    let up = out.set_up(cfg, |cfg, n| setup(cfg, lib, n), |(d, _)| stop(d));
    let Some((mut daemon, clients)) = up else {
        return out;
    };
    let before = counters(&mut daemon.control);
    let nclients = clients.len();
    let mixes: Vec<Vec<Request>> = (0..nclients)
        .map(|c| gen::serve_mix(cfg.seed, c, lib.expect.len(), checks.len()))
        .collect();
    let traced = cfg.tracer.is_on();
    let origin = cfg.tracer_origin;
    let cpu0 = crate::measure::cpu_time();
    let began = Instant::now();
    let shared = Shared {
        lib,
        checks: &checks,
        deadline: began + cfg.duration(),
        clients: nclients,
    };
    let runs: Vec<(ClientRun, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&mixes)
            .enumerate()
            .map(|(i, (client, mix))| {
                let sh = &shared;
                s.spawn(move || drive(sh, i, client, mix, Tracer::new(traced, origin)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = runs
        .iter()
        .map(|(r, _)| r.elapsed)
        .max()
        .unwrap_or_default();
    out.cpu = crate::measure::cpu_time().saturating_sub(cpu0);
    out.window = window;
    let after = counters(&mut daemon.control);
    let mut overhead = Vec::new();
    let mut client_stats = ClientStats::default();
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    for (r, tracer) in runs {
        for (all, mine) in by_kind.iter_mut().zip(r.by_kind) {
            all.extend(mine);
        }
        out.attempted += r.lat_ms.len() as u64;
        out.failed += r.failed;
        out.lat_ms.extend(r.lat_ms);
        out.note_failures(r.failures);
        overhead.extend(r.overhead_ms);
        client_stats.retries += r.stats.retries;
        client_stats.reconnects += r.stats.reconnects;
        cfg.tracer.absorb(tracer);
    }
    if let Err(e) = stop(daemon) {
        out.fail(e);
    }
    for (name, lat) in KINDS.iter().zip(&mut by_kind) {
        lat.sort_by(f64::total_cmp);
        out.notes.push(format!(
            "{name}: {} requests, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
            lat.len(),
            percentile(lat, 50.0),
            percentile(lat, 90.0),
            percentile(lat, 99.0)
        ));
    }
    out.work = format!(
        "{} qualifiers served, {} check programs, {nclients} clients, {} requests per client cycle",
        lib.expect.len(),
        checks.len(),
        mixes.first().map_or(0, Vec::len)
    );
    if !traced {
        return out;
    }
    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            out.fail(e);
            return out;
        }
    };
    let reqs = (after.requests - before.requests).max(1.0);
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let by_kind = |name: &str| {
        let d: Vec<f64> = cfg
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(crate::trace::Span::dur_ms)
            .collect();
        crate::measure::mean(&d)
    };
    out.layer(
        "soundness.cache_hit_ratio",
        "ratio",
        hits / (hits + misses).max(1.0),
    );
    out.layer("soundness.cache_misses", "1/req", misses / reqs);
    out.layer(
        "soundness.follow_hits",
        "1/req",
        (after.follow_hits - before.follow_hits) / reqs,
    );
    out.layer("core.client.prove_ms", "ms", by_kind("core.client.prove"));
    out.layer("core.client.check_ms", "ms", by_kind("core.client.check"));
    out.layer(
        "core.client.miss_prove_ms",
        "ms",
        by_kind("core.client.miss_prove"),
    );
    out.layer(
        "core.server.overhead_ms",
        "ms",
        crate::measure::mean(&overhead),
    );
    out.layer(
        "core.server.dedup_hits",
        "1/req",
        (after.dedup_hits - before.dedup_hits) / reqs,
    );
    out.layer("core.server.shed", "count", after.shed - before.shed);
    out.layer(
        "core.server.polls_per_request",
        "1/req",
        (after.polls - before.polls) / reqs,
    );
    out.layer("core.client.retries", "count", client_stats.retries as f64);
    out.layer(
        "core.client.reconnects",
        "count",
        client_stats.reconnects as f64,
    );
    out
}
