//! The repository benchmark: three seeded workloads over the mdlump
//! stack, each printing its end-to-end metrics (`--trace 0`) or its
//! per-layer breakdown (`--trace 1`) as one JSON line. See README.md.
//!
//! ```text
//! perfbench --workload tandem-cold|tandem-sweep|serve-mixed
//!           --seed N --seconds S --trace 0|1
//! ```

mod gen;
mod serve;
mod stats;
mod tandem;

use std::process::ExitCode;
use std::time::Duration;

use stats::Outcome;

/// Which metric family a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layers {
    /// End-to-end metrics, measured with no per-layer timers.
    Off,
    /// Per-layer metrics from a traced run (plus coverage and overhead).
    On,
}

/// How one run measures.
#[derive(Debug, Clone, Copy)]
struct Mode {
    seed: u64,
    seconds: Duration,
    layers: Layers,
}

/// Every per-layer metric. Layers a workload does not exercise report
/// zero (the store, the daemon and the parser on the tandem workloads).
#[derive(Debug, Default)]
struct LayerMetrics {
    reach_s: f64,
    reach_states: f64,
    to_md_s: f64,
    compile_s: f64,
    kernel_bytes: f64,
    mrp_s: f64,
    lump_s: f64,
    levels_relumped: f64,
    levels_reused: f64,
    lumped_states: f64,
    solve_s: f64,
    iterations: f64,
    iter_us: f64,
    hit_build_ms: f64,
    miss_write_ms: f64,
    store_hit: f64,
    store_miss: f64,
    write_bytes: f64,
    server_ms: f64,
    wait_ms: f64,
    shed: f64,
    request_parse_ms: f64,
    parse_ms: f64,
    /// Share of the traced wall that the per-layer spans cover.
    coverage: f64,
    /// Traced minus untraced wall of the same operation.
    overhead_ms: f64,
}

/// Per-layer spans must cover at least this share of the timed wall.
const MIN_COVERAGE: f64 = 0.95;

impl LayerMetrics {
    fn report(&self, out: &mut Outcome) {
        if self.coverage.is_nan() || self.coverage < MIN_COVERAGE {
            out.problem(format!(
                "per-layer spans cover {:.1}% of the traced wall (need {:.0}%)",
                self.coverage * 100.0,
                MIN_COVERAGE * 100.0
            ));
        }
        for (name, value, unit) in [
            ("models.reach_s", self.reach_s, "s"),
            ("models.reach_states", self.reach_states, "count"),
            ("md.to_md_s", self.to_md_s, "s"),
            ("md.compile_s", self.compile_s, "s"),
            ("md.kernel_bytes", self.kernel_bytes, "bytes"),
            ("core.mrp_s", self.mrp_s, "s"),
            ("core.lump_s", self.lump_s, "s"),
            ("core.levels_relumped", self.levels_relumped, "count"),
            ("core.levels_reused", self.levels_reused, "count"),
            ("core.lumped_states", self.lumped_states, "count"),
            ("ctmc.solve_s", self.solve_s, "s"),
            ("ctmc.iterations", self.iterations, "count"),
            ("ctmc.iter_us", self.iter_us, "us"),
            ("store.hit_build_ms", self.hit_build_ms, "ms"),
            ("store.miss_write_ms", self.miss_write_ms, "ms"),
            ("store.hit", self.store_hit, "count"),
            ("store.miss", self.store_miss, "count"),
            ("store.write_bytes", self.write_bytes, "bytes"),
            ("serve.server_ms", self.server_ms, "ms"),
            ("serve.wait_ms", self.wait_ms, "ms"),
            ("serve.shed", self.shed, "count"),
            ("serve.request_parse_ms", self.request_parse_ms, "ms"),
            ("cli.parse_ms", self.parse_ms, "ms"),
            ("trace.coverage", self.coverage, "ratio"),
            ("trace.overhead_ms", self.overhead_ms, "ms"),
        ] {
            out.metric(name, value, unit);
        }
    }
}

const USAGE: &str = "usage: perfbench --workload tandem-cold|tandem-sweep|serve-mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<(String, Mode), String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<u64>()
        .ok()
        .filter(|s| (1..=600).contains(s))
        .ok_or("--seconds must be a whole number in 1..=600")?;
    let layers = match value("--trace")? {
        "0" => Layers::Off,
        "1" => Layers::On,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok((
        workload,
        Mode {
            seed,
            seconds: Duration::from_secs(seconds),
            layers,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, mode) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    match workload.as_str() {
        "tandem-cold" => tandem::cold(mode, &mut out),
        "tandem-sweep" => tandem::sweep(mode, &mut out),
        "serve-mixed" => serve::mixed(mode, &mut out),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    out.print();
    ExitCode::SUCCESS
}
