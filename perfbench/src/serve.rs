//! The `serve-mixed` workload: an in-process `mdl-serve` daemon on a
//! fresh store, driven by a closed-loop client whose stream mixes
//! hot-set hits with fresh variants that miss every stage cache.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdl_core::{model_source_key, LumpKind, LumpRequest, MdMrp, Pipeline, SolveRequest, Staged};
use mdl_ctmc::SolverOptions;
use mdl_md::{CompiledMdMatrix, MdMatrix};
use mdl_obs::json::{self, Json};
use mdl_obs::Budget;
use mdl_serve::client::Client;
use mdl_serve::server::{Server, ServerConfig};
use mdl_store::Store;

use crate::gen::{self, Request, Stream, BLOCK, SERVE_LUMPED, SERVE_STATES};
use crate::stats::{mean, median, ms, reference_ms, secs, EndToEnd, Outcome};
use crate::{LayerMetrics, Layers, Mode};

/// Daemon workers; also the threads that compute the reference solves.
const WORKERS: usize = 2;
/// Closed-loop clients in the timed phase. One request in flight at a
/// time makes each request's latency its own CPU time. With two, the
/// share of the process's CPU time that belongs to one request is not
/// observable, so a request's latency would pick up the other client's
/// concurrent work.
const CLIENTS: usize = 1;
/// Requests the timed phase completes, if it can within twice its
/// seconds, even when that takes longer than its seconds: a p99 then has
/// at least 10 samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;
/// Allowed distance of a daemon measure from the in-process reference.
const MEASURE_TOL: f64 = 1e-8;
/// Blocks of client 0's stream replayed in process by the traced run.
const REPLAY_BLOCKS: usize = 3;
/// Scratch space for the daemon's stores, under the working directory.
const TMP_DIR: &str = ".perfbench_tmp";

/// A running daemon on its own fresh store directory.
struct Daemon {
    server: Server,
    dir: PathBuf,
}

impl Daemon {
    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    fn stop(self) {
        self.server.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = Path::new(TMP_DIR).join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts a daemon (`WORKERS` workers, 1 solve thread) on a fresh store
/// and warms the hot set through it over one connection, one model at a
/// time, so the daemon's peak memory does not depend on how two warm-up
/// solves happened to overlap.
fn start_daemon(hot: &[Arc<str>], out: &mut Outcome) -> Option<Daemon> {
    let dir = fresh_dir("store");
    let server = match Server::start(ServerConfig {
        workers: WORKERS,
        solve_threads: 1,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            out.problem(format!("daemon start failed: {e}"));
            return None;
        }
    };
    let daemon = Daemon { server, dir };
    let replies: Vec<Result<Reply, String>> = match Client::connect(&daemon.addr()) {
        Ok(mut client) => hot
            .iter()
            .map(|m| send(&mut client, &gen::request_line(m)))
            .collect(),
        Err(e) => vec![Err(e.to_string())],
    };
    for r in replies {
        match r {
            Ok(r) if r.ok && r.lumped == SERVE_LUMPED => {}
            Ok(r) => out.problem(format!("hot-set warm-up: {}", r.raw)),
            Err(e) => out.problem(format!("hot-set warm-up: {e}")),
        }
    }
    Some(daemon)
}

/// One parsed daemon response.
struct Reply {
    ok: bool,
    measure: f64,
    states: u64,
    lumped: u64,
    server_ms: f64,
    raw: String,
}

fn send(client: &mut Client, line: &str) -> Result<Reply, String> {
    let raw = client.request(line).map_err(|e| e.to_string())?;
    let v = json::parse(&raw).map_err(|e| format!("bad response {raw:?}: {e}"))?;
    let num = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    Ok(Reply {
        ok: v.get("status").and_then(Json::as_str) == Some("ok"),
        measure: num("measure"),
        states: v.get("original_states").and_then(Json::as_u64).unwrap_or(0),
        lumped: v.get("lumped_states").and_then(Json::as_u64).unwrap_or(0),
        server_ms: num("elapsed_ms"),
        raw,
    })
}

/// The daemon's `stats` counter `name` (0 when absent).
fn stats_counter(addr: &str, name: &str) -> f64 {
    Client::connect(addr)
        .and_then(|mut c| c.request(r#"{"cmd":"stats"}"#))
        .ok()
        .and_then(|raw| json::parse(&raw).ok())
        .and_then(|v| {
            v.get("stats")
                .and_then(|s| s.get(name))
                .and_then(Json::as_f64)
        })
        .unwrap_or(0.0)
}

/// An obs registry counter: the same process-wide registry the daemon's
/// `stats` command reads.
fn registry_counter(name: &str) -> f64 {
    mdl_obs::snapshot()
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

/// The workload's clock: process CPU time. With one request in flight,
/// the process's CPU time over a request is that request's cost: the
/// client, its connection handler and the worker, each running in turn.
/// It leaves out time the hypervisor stole and time the request spent
/// blocked, e.g. on the disk.
fn clock() -> Duration {
    crate::stats::cpu_time()
}

/// One completed request of the timed phase.
struct Sample {
    model: Arc<str>,
    fresh: bool,
    reply: Result<Reply, String>,
    /// Client-side wall time.
    wall: Duration,
    /// Client-side latency on the workload's [`clock`].
    latency: Duration,
}

/// What one client's closed loop measured.
#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    /// The [`clock`] time of each complete block of `BLOCK` requests (s),
    /// without the reference work run inside it.
    blocks: Vec<f64>,
    /// The CPU time of the reference work run after each request (ms).
    reference: Vec<f64>,
}

/// When a client's closed loop stops: at `deadline` once it has sent
/// `min_requests`, and at `last` in any case.
#[derive(Clone, Copy)]
struct Stop {
    deadline: Instant,
    min_requests: usize,
    last: Instant,
}

impl Stop {
    fn reached(&self, sent: usize) -> bool {
        let now = Instant::now();
        now >= self.last || (now >= self.deadline && sent >= self.min_requests)
    }
}

/// One client's closed loop: send, wait for the reply, run the reference
/// work, repeat until `stop`.
fn client_loop(addr: &str, stream: Stream, stop: Stop) -> Result<ClientRun, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut run = ClientRun::default();
    let mut block_start = clock();
    let mut block_reference = 0.0;
    for (i, request) in stream.enumerate() {
        if stop.reached(i) {
            break;
        }
        if i % BLOCK == 0 {
            block_start = clock();
            block_reference = 0.0;
        }
        let c = clock();
        let t = Instant::now();
        let reply = send(&mut client, &request.line);
        run.samples.push(Sample {
            model: request.model,
            fresh: request.fresh,
            reply,
            wall: t.elapsed(),
            latency: clock() - c,
        });
        if i % BLOCK == BLOCK - 1 {
            run.blocks
                .push(secs(clock() - block_start) - block_reference / 1e3);
        }
        let r = reference_ms();
        run.reference.push(r);
        block_reference += r;
    }
    Ok(run)
}

/// The in-process no-store reference solve of a model text, with the
/// daemon's solve settings (fallback ladder on, tolerance 1e-12): a
/// different method could stop at another point within its tolerance.
fn reference(model: &str) -> Result<(u64, u64, f64), String> {
    let parsed = mdl_cli::parse_model(model).map_err(|e| e.to_string())?;
    let mrp = parsed.build().map_err(|e| e.to_string())?;
    let lumped = LumpRequest::new(LumpKind::Ordinary)
        .threads(1)
        .run(&mrp)
        .map_err(|e| e.to_string())?;
    let (outcome, _) = solve_request().run(&lumped.mrp);
    let sol = outcome
        .map_err(|e| e.to_string())?
        .into_solution()
        .ok_or("stationary solve returned no distribution")?;
    let measure = sol
        .try_expected_reward(&lumped.mrp.reward_vector())
        .map_err(|e| e.to_string())?;
    Ok((mrp.num_states() as u64, lumped.stats.lumped_states, measure))
}

/// References for every distinct model text, computed on `WORKERS`
/// threads after the timed phase.
fn references(models: Vec<&str>) -> HashMap<String, Result<(u64, u64, f64), String>> {
    let chunks: Vec<Vec<&str>> = (0..WORKERS)
        .map(|c| models.iter().skip(c).step_by(WORKERS).copied().collect())
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|m| (m.to_string(), reference(m)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Counts every sample as one operation, failed unless the daemon
/// answered `ok` with the reference's state counts and measure.
fn check_samples(out: &mut Outcome, samples: &[Sample]) {
    let mut models: Vec<&str> = samples.iter().map(|s| &*s.model).collect();
    models.sort_unstable();
    models.dedup();
    let refs = references(models);
    for s in samples {
        let want = &refs[&*s.model];
        let ok = match (&s.reply, want) {
            (Ok(r), Ok((states, lumped, measure))) => {
                r.ok && r.states == *states
                    && r.lumped == *lumped
                    && *states == SERVE_STATES
                    && *lumped == SERVE_LUMPED
                    && (r.measure - measure).abs() <= MEASURE_TOL
            }
            _ => false,
        };
        out.op(ok, || match (&s.reply, want) {
            (Ok(r), Ok(w)) => format!("request: reply {} vs reference {w:?}", r.raw),
            (Err(e), _) => format!("request failed: {e}"),
            (_, Err(e)) => format!("reference solve failed: {e}"),
        });
    }
}

/// The timed phase: `CLIENTS` closed-loop clients until the deadline.
/// Returns what they measured, with `blocks` of every client, and the
/// phase's [`clock`] time (s) without the reference work.
fn timed_phase(daemon: &Daemon, mode: Mode, hot: &[Arc<str>]) -> (ClientRun, f64) {
    let addr = daemon.addr();
    let start = Instant::now();
    let stop = Stop {
        deadline: start + mode.seconds,
        min_requests: MIN_REQUESTS.div_ceil(CLIENTS),
        last: start + 2 * mode.seconds,
    };
    let t = clock();
    let results: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = &addr;
                let stream = Stream::new(mode.seed, c, hot);
                s.spawn(move || client_loop(addr, stream, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let phase = secs(clock() - t);
    let mut all = ClientRun::default();
    for r in results {
        match r {
            Ok(run) => {
                all.samples.extend(run.samples);
                all.blocks.extend(run.blocks);
                all.reference.extend(run.reference);
            }
            Err(e) => all.samples.push(Sample {
                model: "".into(),
                fresh: false,
                reply: Err(format!("client connect failed: {e}")),
                wall: Duration::ZERO,
                latency: Duration::ZERO,
            }),
        }
    }
    let reference = all.reference.iter().sum::<f64>() / 1e3;
    (all, phase - reference)
}

/// `serve-mixed`: mixed hit/miss traffic against an in-process daemon.
pub fn mixed(mode: Mode, out: &mut Outcome) {
    // Counters and histograms on, as the `mdl-serve` binary runs.
    mdl_obs::set_enabled(true);
    let hot = gen::hot_set(mode.seed);
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        // The first set-up also carries everything since process start.
        let t = if i == 0 { Duration::ZERO } else { clock() };
        daemon = start_daemon(&hot, out);
        setups.push(secs(clock() - t));
    }
    // The daemon's footprint once warm: the timed phase then grows it
    // with the number of fresh variants it happened to complete.
    let rss = crate::stats::peak_rss_mib();
    let Some(daemon) = daemon else {
        return;
    };

    let addr = daemon.addr();
    let shed_before = stats_counter(&addr, "serve_shed");
    let store_before: Vec<f64> = ["store.hit", "store.miss", "store.write_bytes"]
        .iter()
        .map(|n| registry_counter(n))
        .collect();
    let (run, phase) = timed_phase(&daemon, mode, &hot);
    let samples = run.samples;
    let store_after: Vec<f64> = ["store.hit", "store.miss", "store.write_bytes"]
        .iter()
        .map(|n| registry_counter(n))
        .collect();
    let shed = stats_counter(&addr, "serve_shed") - shed_before;
    daemon.stop();

    match mode.layers {
        Layers::Off => {
            let lat = |pick: fn(&Sample) -> bool| -> Vec<f64> {
                samples
                    .iter()
                    .filter(|s| pick(s))
                    .map(|s| ms(s.latency))
                    .collect()
            };
            let mut e2e = EndToEnd {
                setups,
                ops: lat(|_| true),
                passes: run.blocks,
                points: lat(|s| !s.fresh),
                misses: lat(|s| s.fresh),
                phase,
                rss,
            };
            e2e.scale_to_nominal(&run.reference);
            e2e.report(out);
        }
        Layers::On => {
            let mut l = replay(mode, &hot, out);
            let server: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.reply.as_ref().ok().map(|r| r.server_ms))
                .collect();
            let wait: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.reply.as_ref().ok().map(|r| ms(s.wall) - r.server_ms))
                .collect();
            l.server_ms = mean(&server);
            l.wait_ms = mean(&wait);
            l.shed = shed;
            l.store_hit = store_after[0] - store_before[0];
            l.store_miss = store_after[1] - store_before[1];
            l.write_bytes = store_after[2] - store_before[2];
            l.report(out);
        }
    }
    check_samples(out, &samples);
    let _ = std::fs::remove_dir(TMP_DIR);
}

/// The daemon's stationary solve request, without its checkpoint sink.
fn solve_request() -> SolveRequest {
    SolveRequest::stationary()
        .solver_options(SolverOptions {
            tolerance: 1e-12,
            ..SolverOptions::default()
        })
        .threads(1)
        .fallback(true)
}

/// Per-layer times of one replayed request.
#[derive(Default)]
struct ReplayTrace {
    wall: Duration,
    covered: Duration,
    /// The daemon's protocol-line parse (`parse_request`).
    request_parse: Duration,
    parse: Duration,
    build: Duration,
    /// The build closure's constituents (misses only).
    reach: Duration,
    to_md: Duration,
    mrp: Duration,
    lump: Duration,
    compile: Duration,
    solve: Duration,
    iterations: usize,
    /// Stage wall minus compute on a miss: the store's persist work.
    store_write: Duration,
    kernel_bytes: usize,
    states: u64,
    levels: usize,
    hit: bool,
}

/// A store plus the in-memory kernel cache the daemon keeps beside it.
struct ReplayStore {
    store: Store,
    dir: PathBuf,
    kernels: HashMap<u64, Arc<CompiledMdMatrix>>,
}

impl ReplayStore {
    fn open() -> Result<Self, String> {
        let dir = fresh_dir("replay");
        Ok(ReplayStore {
            store: Store::open(&dir).map_err(|e| e.to_string())?,
            dir,
            kernels: HashMap::new(),
        })
    }
}

impl Drop for ReplayStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Replays one request through the stages a daemon worker runs —
/// `parse_model` and `Pipeline::{build, lump, compile, solve}` on a
/// store, with checkpoint sinks and the in-memory kernel cache — timing
/// each call. With `traced`, the build closure also times the
/// constituent calls of `ParsedModel::build`.
fn replay_one(
    rs: &mut ReplayStore,
    model: &str,
    traced: bool,
) -> Result<(f64, u64, ReplayTrace), String> {
    let line = gen::request_line(model);
    let mut tr = ReplayTrace::default();
    let t0 = Instant::now();
    let t = Instant::now();
    mdl_serve::protocol::parse_request(&line)?;
    tr.request_parse = t.elapsed();
    let t = Instant::now();
    let parsed = mdl_cli::parse_model(model).map_err(|e| e.to_string())?;
    tr.parse = t.elapsed();

    let pipeline = Pipeline::with_store(model_source_key(model), rs.store.clone());
    let mut inner = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let t = Instant::now();
    let built = pipeline
        .build(|| {
            let err = |e: &dyn std::fmt::Display| mdl_core::CoreError::Build {
                detail: e.to_string(),
            };
            if !traced {
                return parsed.build().map_err(|e| err(&e));
            }
            let m = &parsed.model;
            let initial = mdl_core::DecomposableVector::point_mass(&m.sizes(), &m.initial_state())?;
            let t = Instant::now();
            let md = m.kronecker().to_md().map_err(|e| err(&e))?;
            inner.1 = t.elapsed();
            let t = Instant::now();
            let reach = m.reachable().map_err(|e| err(&e))?;
            inner.0 = t.elapsed();
            let t = Instant::now();
            let matrix = MdMatrix::new(md, reach).map_err(|e| err(&e))?;
            let mrp = MdMrp::new(matrix, parsed.reward.clone(), initial)?;
            inner.2 = t.elapsed();
            Ok(mrp)
        })
        .map_err(|e| e.to_string())?;
    tr.build = t.elapsed();
    (tr.reach, tr.to_md, tr.mrp) = inner;
    tr.hit = built.cached;
    tr.states = built.value.num_states() as u64;
    if !built.cached {
        tr.store_write += tr.build.saturating_sub(tr.reach + tr.to_md + tr.mrp);
    }

    let t = Instant::now();
    let lumped = pipeline
        .lump(&built, &LumpRequest::new(LumpKind::Ordinary).threads(1))
        .map_err(|e| e.to_string())?;
    let lump_wall = t.elapsed();
    tr.levels = lumped.value.partitions.len();
    if !lumped.cached {
        tr.lump = lumped.value.stats.elapsed;
        tr.store_write += lump_wall.saturating_sub(tr.lump);
    }
    let lumped_mrp = Staged {
        value: lumped.value.mrp.clone(),
        key: lumped.key,
        cached: lumped.cached,
    };

    let t = Instant::now();
    let kernel = match rs.kernels.get(&lumped_mrp.key) {
        Some(k) => k.clone(),
        None => {
            let staged = pipeline
                .compile(&lumped_mrp, 1, &Budget::unlimited())
                .map_err(|e| e.to_string())?;
            rs.kernels.insert(lumped_mrp.key, staged.value.clone());
            staged.value
        }
    };
    let compile_wall = t.elapsed();
    tr.kernel_bytes = kernel.memory_bytes();

    let base = solve_request();
    let solve_key = pipeline.solve_key(lumped_mrp.key, &base);
    let mut options = SolverOptions {
        tolerance: 1e-12,
        ..SolverOptions::default()
    };
    options.checkpoint = pipeline.stationary_checkpoint_sink(solve_key, 256);
    let t = Instant::now();
    if let Some(ck) = pipeline.load_checkpoint(solve_key) {
        options.warm_start = Some(ck.iterate);
    }
    let request = SolveRequest::stationary()
        .solver_options(options)
        .threads(1)
        .fallback(true)
        .prebuilt_kernel(kernel);
    let (outcome, report) = pipeline.solve(&lumped_mrp, &request);
    let staged = outcome.map_err(|e| e.to_string())?;
    let sol = staged
        .value
        .solution()
        .ok_or("stationary solve returned no distribution")?;
    let measure = sol
        .try_expected_reward(&lumped_mrp.value.reward_vector())
        .map_err(|e| e.to_string())?;
    pipeline
        .clear_checkpoint(solve_key)
        .map_err(|e| e.to_string())?;
    let solve_wall = t.elapsed();
    if !staged.cached {
        tr.solve = report.attempts.iter().map(|a| a.elapsed).sum();
        tr.iterations = report.attempts.iter().map(|a| a.iterations).sum();
        tr.store_write += solve_wall.saturating_sub(tr.solve);
    }
    tr.wall = t0.elapsed();
    tr.covered = tr.request_parse + tr.parse + tr.build + lump_wall + compile_wall + solve_wall;

    if traced && !built.cached {
        // The compile stage on a miss is the compile plus its persists;
        // the compile alone is replayed here, outside the request wall,
        // and the rest attributed to the store.
        let t = Instant::now();
        let k = CompiledMdMatrix::compile(lumped_mrp.value.matrix());
        tr.compile = t.elapsed();
        std::hint::black_box(k);
        tr.store_write += compile_wall.saturating_sub(tr.compile);
    }
    Ok((measure, lumped.value.stats.lumped_states, tr))
}

/// Replays the first `REPLAY_BLOCKS` blocks of client 0's stream on two
/// fresh stores (hot set warmed on each): once plainly, once traced.
fn replay(mode: Mode, hot: &[Arc<str>], out: &mut Outcome) -> LayerMetrics {
    let sample: Vec<Request> = Stream::new(mode.seed, 0, hot)
        .take(REPLAY_BLOCKS * BLOCK)
        .collect();
    let mut pass = |traced: bool| -> (Duration, Vec<ReplayTrace>) {
        let mut rs = match ReplayStore::open() {
            Ok(rs) => rs,
            Err(e) => {
                out.problem(format!("replay store: {e}"));
                return (Duration::ZERO, Vec::new());
            }
        };
        for m in hot {
            if let Err(e) = replay_one(&mut rs, m, false) {
                out.problem(format!("replay warm-up: {e}"));
            }
        }
        let mut traces = Vec::new();
        let t = Instant::now();
        for r in &sample {
            match replay_one(&mut rs, &r.model, traced) {
                Ok((_, lumped, tr)) if lumped == SERVE_LUMPED && tr.hit != r.fresh => {
                    traces.push(tr)
                }
                Ok((m, lumped, tr)) => out.problem(format!(
                    "replay: measure {m}, {lumped} lumped, hit {} for fresh {}",
                    tr.hit, r.fresh
                )),
                Err(e) => out.problem(format!("replay failed: {e}")),
            }
        }
        (t.elapsed(), traces)
    };
    let (plain_wall, _) = pass(false);
    let (traced_wall, traces) = pass(true);

    let col = |pick: fn(&ReplayTrace) -> bool, f: fn(&ReplayTrace) -> f64| -> f64 {
        median(&traces.iter().filter(|t| pick(t)).map(f).collect::<Vec<_>>())
    };
    let miss = |t: &ReplayTrace| !t.hit;
    let hit = |t: &ReplayTrace| t.hit;
    let any = |_: &ReplayTrace| true;
    let wall: Duration = traces.iter().map(|t| t.wall).sum();
    let covered: Duration = traces.iter().map(|t| t.covered).sum();
    LayerMetrics {
        reach_s: col(miss, |t| secs(t.reach)),
        reach_states: col(miss, |t| t.states as f64),
        to_md_s: col(miss, |t| secs(t.to_md)),
        compile_s: col(miss, |t| secs(t.compile)),
        kernel_bytes: col(any, |t| t.kernel_bytes as f64),
        mrp_s: col(miss, |t| secs(t.mrp)),
        lump_s: col(miss, |t| secs(t.lump)),
        levels_relumped: traces
            .iter()
            .filter(|t| !t.hit)
            .map(|t| t.levels as f64)
            .sum(),
        levels_reused: traces
            .iter()
            .filter(|t| t.hit)
            .map(|t| t.levels as f64)
            .sum(),
        lumped_states: SERVE_LUMPED as f64,
        solve_s: col(miss, |t| secs(t.solve)),
        iterations: col(miss, |t| t.iterations as f64),
        iter_us: col(miss, |t| secs(t.solve) * 1e6 / t.iterations.max(1) as f64),
        hit_build_ms: col(hit, |t| ms(t.build)),
        miss_write_ms: col(miss, |t| ms(t.store_write)),
        parse_ms: col(any, |t| ms(t.parse)),
        request_parse_ms: col(any, |t| ms(t.request_parse)),
        coverage: covered.as_secs_f64() / wall.as_secs_f64(),
        overhead_ms: ms(traced_wall) - ms(plain_wall),
        ..LayerMetrics::default()
    }
}
