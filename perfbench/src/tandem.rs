//! The `tandem-cold` and `tandem-sweep` workloads: the paper's tandem
//! MSMQ + hypercube model at J = 2, solved for its availability.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdl_core::{
    model_source_key, sweep_grid, CoreError, DecomposableVector, LumpKind, LumpRequest, MdMrp,
    Pipeline, SolveRequest, SweepOutcome, SweepPoint, SweepRequest,
};
use mdl_ctmc::SolverOptions;
use mdl_md::{CompiledMdMatrix, MdMatrix};
use mdl_mdd::Mdd;
use mdl_models::tandem::{TandemConfig, TandemModel, TandemRates, TandemReward};
use mdl_models::ComposedModel;

use crate::gen;
use crate::stats::{cpu_time, median, ms, peak_rss_mib, reference_runs, secs, EndToEnd, Outcome};
use crate::{LayerMetrics, Layers, Mode};

const JOBS: usize = 2;
const STATES: u64 = 355_200;
const LUMPED: u64 = 3_930;
/// Availability at J = 2 (EXPERIMENTS.md, Section 5 table).
const AVAILABILITY: f64 = 0.762_711_864;
/// Allowed distance of a measure from its reference.
const MEASURE_TOL: f64 = 1e-8;
/// The swept event: the hypercube service rate `mu_h`.
const EVENT: &str = "hyper_service";
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

/// The model's default hypercube service rate (`tandem-cold`).
fn default_mu_h() -> f64 {
    TandemRates::default().hyper_service
}

fn config(hyper_service: f64) -> TandemConfig {
    TandemConfig {
        jobs: JOBS,
        rates: TandemRates {
            hyper_service,
            ..TandemRates::default()
        },
        ..TandemConfig::default()
    }
}

fn lump_request() -> LumpRequest {
    LumpRequest::new(LumpKind::Ordinary).threads(1)
}

fn solve_request() -> SolveRequest {
    SolveRequest::stationary()
        .solver_options(SolverOptions {
            tolerance: 1e-12,
            ..SolverOptions::default()
        })
        .threads(1)
}

fn build_err(e: impl std::fmt::Display) -> CoreError {
    CoreError::Build {
        detail: e.to_string(),
    }
}

/// What a model → measure run produced.
struct Solved {
    states: u64,
    lumped: u64,
    measure: f64,
}

/// One cold solve through the public entry points a user calls.
fn cold_solve(hyper_service: f64) -> Result<Solved, String> {
    let mrp = TandemModel::new(config(hyper_service))
        .build_md_mrp_with_reward(TandemReward::Availability)
        .map_err(|e| e.to_string())?;
    let lumped = lump_request().run(&mrp).map_err(|e| e.to_string())?;
    let (outcome, _) = solve_request().run(&lumped.mrp);
    let sol = outcome
        .map_err(|e| e.to_string())?
        .into_solution()
        .ok_or("stationary solve returned no distribution")?;
    let measure = sol
        .try_expected_reward(&lumped.mrp.reward_vector())
        .map_err(|e| e.to_string())?;
    Ok(Solved {
        states: mrp.num_states() as u64,
        lumped: lumped.stats.lumped_states,
        measure,
    })
}

/// Per-layer times of one traced cold solve.
struct ColdTrace {
    wall: Duration,
    covered: Duration,
    reach: Duration,
    to_md: Duration,
    mrp: Duration,
    lump: Duration,
    compile: Duration,
    solve: Duration,
    iterations: usize,
    kernel_bytes: usize,
    levels: usize,
}

/// The same cold solve with every constituent call of
/// `build_md_mrp_with_reward` timed on its own.
fn cold_solve_traced() -> Result<(Solved, ColdTrace), String> {
    let t0 = Instant::now();
    let model = TandemModel::new(config(default_mu_h()));
    let reward = model
        .reward(TandemReward::Availability)
        .map_err(|e| e.to_string())?;
    let composed = model.composed();
    let initial = DecomposableVector::point_mass(&composed.sizes(), &composed.initial_state())
        .map_err(|e| e.to_string())?;
    let t_new = t0.elapsed();

    let t = Instant::now();
    let reach = composed.reachable().map_err(|e| e.to_string())?;
    let reach_t = t.elapsed();
    let t = Instant::now();
    let md = composed.kronecker().to_md().map_err(|e| e.to_string())?;
    let to_md_t = t.elapsed();
    let t = Instant::now();
    let matrix = MdMatrix::new(md, reach).map_err(|e| e.to_string())?;
    let mrp = MdMrp::new(matrix, reward, initial).map_err(|e| e.to_string())?;
    let mrp_t = t.elapsed();

    let t = Instant::now();
    let lumped = lump_request().run(&mrp).map_err(|e| e.to_string())?;
    let lump_t = t.elapsed();
    let t = Instant::now();
    let kernel = Arc::new(CompiledMdMatrix::compile(lumped.mrp.matrix()));
    let compile_t = t.elapsed();
    let kernel_bytes = kernel.memory_bytes();
    let t = Instant::now();
    let (outcome, _) = solve_request().prebuilt_kernel(kernel).run(&lumped.mrp);
    let solve_t = t.elapsed();

    let t = Instant::now();
    let sol = outcome
        .map_err(|e| e.to_string())?
        .into_solution()
        .ok_or("stationary solve returned no distribution")?;
    let measure = sol
        .try_expected_reward(&lumped.mrp.reward_vector())
        .map_err(|e| e.to_string())?;
    let measure_t = t.elapsed();
    let wall = t0.elapsed();
    let solved = Solved {
        states: mrp.num_states() as u64,
        lumped: lumped.stats.lumped_states,
        measure,
    };
    let trace = ColdTrace {
        wall,
        covered: t_new + reach_t + to_md_t + mrp_t + lump_t + compile_t + solve_t + measure_t,
        reach: reach_t,
        to_md: to_md_t,
        mrp: mrp_t,
        lump: lump_t,
        compile: compile_t,
        solve: solve_t,
        iterations: sol.stats.iterations,
        kernel_bytes,
        levels: lumped.partitions.len(),
    };
    Ok((solved, trace))
}

/// Why a cold solve's output is wrong, if it is.
fn cold_error(r: &Result<Solved, String>) -> Option<String> {
    match r {
        Ok(s)
            if s.states == STATES
                && s.lumped == LUMPED
                && (s.measure - AVAILABILITY).abs() <= MEASURE_TOL =>
        {
            None
        }
        Ok(s) => Some(format!(
            "cold solve: {} states, {} lumped, availability {} (want {STATES}, {LUMPED}, {AVAILABILITY})",
            s.states, s.lumped, s.measure
        )),
        Err(e) => Some(format!("cold solve failed: {e}")),
    }
}

fn check_cold(out: &mut Outcome, r: &Result<Solved, String>) {
    let err = cold_error(r);
    out.op(err.is_none(), || err.unwrap_or_default());
}

/// `tandem-cold`: repeated model → measure solves with no store.
///
/// End-to-end times are process CPU time, scaled to a host of nominal
/// speed (README.md, "How time is measured"): every operation runs on
/// one thread, so this is its wall time without hypervisor steal.
pub fn cold(mode: Mode, out: &mut Outcome) {
    // Set-up: a warm-up solve lets the allocator and page cache settle.
    // It is repeated, and `setup_s` is the median of the repetitions.
    let mut e2e = EndToEnd::default();
    for _ in 0..SETUPS {
        let c = cpu_time();
        let warm = cold_solve(default_mu_h());
        e2e.setups.push(secs(cpu_time() - c));
        if let Some(e) = cold_error(&warm) {
            out.problem(format!("warm-up: {e}"));
        }
    }
    // The first set-up also carries everything since process start.
    e2e.setups[0] = secs(cpu_time()) - e2e.setups[1..].iter().sum::<f64>();

    let deadline = Instant::now() + mode.seconds;
    match mode.layers {
        Layers::Off => {
            let mut reference = Vec::new();
            let phase = cpu_time();
            while Instant::now() < deadline {
                let c = cpu_time();
                let r = cold_solve(default_mu_h());
                e2e.ops.push(ms(cpu_time() - c));
                check_cold(out, &r);
                reference.extend(reference_runs());
            }
            e2e.phase = secs(cpu_time() - phase) - reference.iter().sum::<f64>() / 1e3;
            e2e.scale_to_nominal(&reference);
            e2e.rss = peak_rss_mib();
            e2e.passes = e2e.ops.iter().map(|o| o / 1e3).collect();
            e2e.points = e2e.ops.clone();
            e2e.misses = e2e.ops.clone();
            e2e.report(out);
        }
        Layers::On => {
            let mut untraced = Vec::new();
            let mut traces = Vec::new();
            while Instant::now() < deadline {
                let t = Instant::now();
                let r = cold_solve(default_mu_h());
                untraced.push(ms(t.elapsed()));
                check_cold(out, &r);
                match cold_solve_traced() {
                    Ok((s, tr)) => {
                        check_cold(out, &Ok(s));
                        traces.push(tr);
                    }
                    Err(e) => check_cold(out, &Err(e)),
                }
            }
            let col = |f: fn(&ColdTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
            LayerMetrics {
                reach_s: col(|t| secs(t.reach)),
                reach_states: STATES as f64,
                to_md_s: col(|t| secs(t.to_md)),
                compile_s: col(|t| secs(t.compile)),
                kernel_bytes: col(|t| t.kernel_bytes as f64),
                mrp_s: col(|t| secs(t.mrp)),
                lump_s: col(|t| secs(t.lump)),
                levels_relumped: col(|t| t.levels as f64),
                lumped_states: LUMPED as f64,
                solve_s: col(|t| secs(t.solve)),
                iterations: col(|t| t.iterations as f64),
                iter_us: col(|t| secs(t.solve) * 1e6 / t.iterations.max(1) as f64),
                coverage: col(|t| t.covered.as_secs_f64() / t.wall.as_secs_f64()),
                overhead_ms: col(|t| ms(t.wall)) - median(&untraced),
                ..LayerMetrics::default()
            }
            .report(out);
        }
    }
}

/// What every sweep repetition shares: the re-ratable model skeleton,
/// its reward and the reachability MDD computed once in set-up.
struct SweepSetup {
    base: ComposedModel,
    reward: DecomposableVector,
    reach: Mdd,
}

/// Builds the shared sweep inputs; also returns the reachability time.
fn sweep_setup() -> Result<(SweepSetup, Duration), String> {
    let model = TandemModel::new(config(default_mu_h()));
    let reward = model
        .reward(TandemReward::Availability)
        .map_err(|e| e.to_string())?;
    let base = model.composed().clone();
    let t = Instant::now();
    let reach = base.reachable().map_err(|e| e.to_string())?;
    let reach_t = t.elapsed();
    Ok((
        SweepSetup {
            base,
            reward,
            reach,
        },
        reach_t,
    ))
}

/// Per-layer times of one traced sweep point's build closure.
struct BuildTrace {
    models: Duration,
    to_md: Duration,
    mrp: Duration,
}

/// One pass over the grid through `Pipeline::sweep` with the
/// `SweepRequest::new` defaults (warm starts on) and no store. The
/// build closure records the CPU time each point starts at in `starts`;
/// with `trace`, it also times each constituent call.
fn sweep_once(
    setup: &SweepSetup,
    points: &[SweepPoint],
    starts: &RefCell<Vec<Duration>>,
    trace: Option<&RefCell<Vec<BuildTrace>>>,
) -> Result<SweepOutcome, String> {
    let pipeline = Pipeline::new(model_source_key("perfbench tandem-sweep"));
    let request = SweepRequest::new(lump_request(), solve_request());
    pipeline
        .sweep(points, &request, |pt| {
            starts.borrow_mut().push(cpu_time());
            let rate = pt.params[0].1;
            let Some(trace) = trace else {
                let mut model = setup.base.clone();
                model.set_event_rate(EVENT, rate).map_err(build_err)?;
                return model
                    .build_md_mrp_with_reach(setup.reward.clone(), setup.reach.clone())
                    .map_err(build_err);
            };
            let t = Instant::now();
            let mut model = setup.base.clone();
            model.set_event_rate(EVENT, rate).map_err(build_err)?;
            let initial = DecomposableVector::point_mass(&model.sizes(), &model.initial_state())?;
            let models = t.elapsed();
            let t = Instant::now();
            let md = model.kronecker().to_md().map_err(build_err)?;
            let to_md = t.elapsed();
            let t = Instant::now();
            let matrix = MdMatrix::new(md, setup.reach.clone()).map_err(build_err)?;
            let mrp = MdMrp::new(matrix, setup.reward.clone(), initial)?;
            trace.borrow_mut().push(BuildTrace {
                models,
                to_md,
                mrp: t.elapsed(),
            });
            Ok(mrp)
        })
        .map_err(|e| e.to_string())
}

/// Checks one grid pass: every point converged to `LUMPED` states; the
/// sample points' measures are kept for the cold cross-check.
fn check_sweep(
    out: &mut Outcome,
    r: &Result<SweepOutcome, String>,
    sample_idx: &[usize],
    samples: &mut Vec<(usize, f64)>,
) {
    match r {
        Ok(o) => {
            for p in &o.points {
                let measure = p
                    .outcome
                    .solution()
                    .and_then(|s| s.try_expected_reward(&p.lump.mrp.reward_vector()).ok());
                let ok =
                    p.lump.stats.lumped_states == LUMPED && measure.is_some_and(f64::is_finite);
                out.op(ok, || {
                    format!(
                        "sweep point {}: {} lumped states, measure {measure:?}",
                        p.index, p.lump.stats.lumped_states
                    )
                });
                if let (true, Some(m)) = (sample_idx.contains(&p.index), measure) {
                    samples.push((p.index, m));
                }
            }
        }
        Err(e) => out.op(false, || format!("sweep failed: {e}")),
    }
}

/// `tandem-sweep`: repeated passes over a seeded `hyper_service` grid
/// sharing one reachability MDD. End-to-end times are process CPU time,
/// as for `tandem-cold`, scaled to a host of nominal speed (README.md,
/// "How time is measured").
pub fn sweep(mode: Mode, out: &mut Outcome) {
    let mut e2e = EndToEnd::default();
    let mut reach_times = Vec::new();
    let mut shared = None;
    for _ in 0..SETUPS {
        let c = cpu_time();
        match sweep_setup() {
            Ok((s, reach_t)) => {
                shared = Some(s);
                reach_times.push(secs(reach_t));
            }
            Err(e) => out.problem(format!("sweep set-up failed: {e}")),
        }
        e2e.setups.push(secs(cpu_time() - c));
    }
    let grid = gen::rate_grid(mode.seed);
    let points = sweep_grid(&[(EVENT.to_string(), grid.clone())]);
    e2e.setups[0] = secs(cpu_time()) - e2e.setups[1..].iter().sum::<f64>();
    let Some(setup) = shared else {
        return;
    };
    if setup.reach.count() != STATES {
        out.problem(format!(
            "shared reachability has {} states",
            setup.reach.count()
        ));
    }

    let sample_idx = gen::sample_points(mode.seed);
    let mut samples = Vec::new();
    let deadline = Instant::now() + mode.seconds;
    match mode.layers {
        Layers::Off => {
            let mut reference = Vec::new();
            let phase = cpu_time();
            while Instant::now() < deadline {
                let starts = RefCell::new(Vec::new());
                let c = cpu_time();
                let r = sweep_once(&setup, &points, &starts, None);
                let end = cpu_time();
                e2e.passes.push(secs(end - c));
                // A point runs from its build call to the next one's.
                let mut starts = starts.into_inner();
                starts.push(end);
                let point_ms: Vec<f64> = starts.windows(2).map(|w| ms(w[1] - w[0])).collect();
                e2e.misses.extend(point_ms.first());
                e2e.ops.extend(point_ms);
                check_sweep(out, &r, &sample_idx, &mut samples);
                reference.extend(reference_runs());
            }
            e2e.phase = secs(cpu_time() - phase) - reference.iter().sum::<f64>() / 1e3;
            e2e.rss = peak_rss_mib();
            e2e.points = e2e.ops.clone();
            cross_check(out, &grid, &sample_idx, &samples);
            e2e.scale_to_nominal(&reference);
            e2e.report(out);
        }
        Layers::On => {
            let mut untraced = Vec::new();
            let mut traced = Vec::new();
            let mut builds: Vec<BuildTrace> = Vec::new();
            let mut lump = Vec::new();
            let mut solve = Vec::new();
            let mut iters = Vec::new();
            let mut compile = Vec::new();
            let mut kernel_bytes = Vec::new();
            let mut coverage = Vec::new();
            let mut relumped = Vec::new();
            let mut reused = Vec::new();
            while Instant::now() < deadline {
                let t = Instant::now();
                let r = sweep_once(&setup, &points, &RefCell::default(), None);
                untraced.push(ms(t.elapsed()));
                check_sweep(out, &r, &sample_idx, &mut samples);

                let cell = RefCell::new(Vec::new());
                let t = Instant::now();
                let r = sweep_once(&setup, &points, &RefCell::default(), Some(&cell));
                let wall = t.elapsed();
                traced.push(ms(wall));
                check_sweep(out, &r, &sample_idx, &mut samples);
                let Ok(o) = r else { continue };
                let b = cell.into_inner();
                let mut covered = Duration::ZERO;
                for (p, bt) in o.points.iter().zip(&b) {
                    // The sweep compiles each point's lumped kernel
                    // internally; the same compile is replayed here,
                    // outside the timed wall, to measure it.
                    let t = Instant::now();
                    let k = CompiledMdMatrix::compile(p.lump.mrp.matrix());
                    let c = t.elapsed();
                    compile.push(secs(c));
                    kernel_bytes.push(k.memory_bytes() as f64);
                    let s: Duration = p.report.attempts.iter().map(|a| a.elapsed).sum();
                    lump.push(secs(p.lump.stats.elapsed));
                    solve.push(secs(s));
                    iters.push(
                        p.report
                            .attempts
                            .iter()
                            .map(|a| a.iterations)
                            .sum::<usize>() as f64,
                    );
                    covered += bt.models + bt.to_md + bt.mrp + p.lump.stats.elapsed + c + s;
                }
                coverage.push(covered.as_secs_f64() / wall.as_secs_f64());
                relumped.push(o.levels_relumped as f64);
                reused.push(o.levels_reused as f64);
                builds.extend(b);
            }
            cross_check(out, &grid, &sample_idx, &samples);
            let per_iter: Vec<f64> = solve
                .iter()
                .zip(&iters)
                .map(|(s, i)| s * 1e6 / i.max(1.0))
                .collect();
            LayerMetrics {
                reach_s: median(&reach_times),
                reach_states: setup.reach.count() as f64,
                to_md_s: median(&builds.iter().map(|b| secs(b.to_md)).collect::<Vec<_>>()),
                compile_s: median(&compile),
                kernel_bytes: median(&kernel_bytes),
                mrp_s: median(&builds.iter().map(|b| secs(b.mrp)).collect::<Vec<_>>()),
                lump_s: median(&lump),
                levels_relumped: median(&relumped),
                levels_reused: median(&reused),
                lumped_states: LUMPED as f64,
                solve_s: median(&solve),
                iterations: median(&iters),
                iter_us: median(&per_iter),
                coverage: median(&coverage),
                overhead_ms: median(&traced) - median(&untraced),
                ..LayerMetrics::default()
            }
            .report(out);
        }
    }
}

/// Compares the sampled sweep measures with independent cold solves of
/// the same rates (fresh model, fresh reachability, no seeds, no warm
/// start), computed after the timed phase.
fn cross_check(out: &mut Outcome, grid: &[f64], sample_idx: &[usize], samples: &[(usize, f64)]) {
    for &idx in sample_idx {
        let reference = match cold_solve(grid[idx]) {
            Ok(s) if s.lumped == LUMPED && s.states == STATES => s.measure,
            Ok(s) => {
                out.problem(format!(
                    "reference solve: {} states, {} lumped",
                    s.states, s.lumped
                ));
                continue;
            }
            Err(e) => {
                out.problem(format!("reference solve failed: {e}"));
                continue;
            }
        };
        for (i, m) in samples.iter().filter(|(i, _)| *i == idx) {
            if (m - reference).abs() > MEASURE_TOL {
                out.failed += 1;
                out.problem(format!("sweep point {i}: measure {m} vs cold {reference}"));
            }
        }
    }
}
