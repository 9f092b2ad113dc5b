//! Sample statistics, process memory and the result line.

use std::time::Duration;

use mdl_obs::json::JsonObject;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock(id: i32) -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    Duration::new(
        u64::try_from(ts.sec).expect("CPU time is non-negative"),
        u32::try_from(ts.nsec).expect("nanoseconds below 1e9"),
    )
}

/// CPU time used so far by every thread of this process, exited ones
/// included. Unlike wall time it leaves out time the hypervisor stole
/// from the machine's virtual CPUs, which on a shared host can add more
/// than the operation itself.
pub fn cpu_time() -> Duration {
    clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time used so far by the calling thread.
fn thread_cpu_time() -> Duration {
    clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time the reference work takes on a host of nominal speed, in ms.
/// A fixed constant near its median on the baseline host (BASELINE.md),
/// so that scaled times stay close to CPU milliseconds.
pub const REFERENCE_NOMINAL_MS: f64 = 0.85;

/// Reference-work runs after each operation of the tandem workloads.
pub const REFERENCE_RUNS: usize = 20;

/// The CPU times (ms) of `REFERENCE_RUNS` runs of [`reference_ms`].
pub fn reference_runs() -> impl Iterator<Item = f64> {
    (0..REFERENCE_RUNS).map(|_| reference_ms())
}

/// Runs a fixed piece of work that is the benchmark's own, not the
/// program's, and returns the calling thread's CPU time for it in ms.
///
/// The work is UTF-8 validation of overlapping slices of a text and a
/// hash map of small heap allocations, the kinds of work protocol
/// parsing and explicit reachability do. Its CPU time moves with the
/// host's speed, so the ratio of [`REFERENCE_NOMINAL_MS`] to its median
/// over a run says how much faster or slower than nominal the host ran.
pub fn reference_ms() -> f64 {
    let t = thread_cpu_time();
    let text: Vec<u8> = (0..8192u32).map(|i| b'a' + (i % 26) as u8).collect();
    let mut valid = 0usize;
    for start in 0..200 {
        valid += std::str::from_utf8(&text[start..]).map_or(0, str::len);
    }
    let mut map = std::collections::HashMap::new();
    for k in 0..4000u64 {
        map.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), vec![k; 4]);
    }
    std::hint::black_box((valid, map));
    ms(thread_cpu_time() - t)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for even counts); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The end-to-end samples of one run, all on the workload's clock.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Each set-up repetition (s); the first also carries process start.
    pub setups: Vec<f64>,
    /// Every timed operation (ms).
    pub ops: Vec<f64>,
    /// Each pass over the workload's batch (s).
    pub passes: Vec<f64>,
    /// The operations `point_p50_ms` is the median of (ms).
    pub points: Vec<f64>,
    /// The operations that could reuse nothing (ms).
    pub misses: Vec<f64>,
    /// The timed phase (s).
    pub phase: f64,
    /// Peak resident set size (MiB).
    pub rss: f64,
}

impl EndToEnd {
    /// Scales every time to a host of nominal speed: multiplies it by
    /// `REFERENCE_NOMINAL_MS / median(reference)`, where `reference`
    /// holds the [`reference_ms`] runs of the timed phase. Set-up, which
    /// comes right before, is scaled by the same factor. Prints the
    /// factor on standard error. Peak RSS is not a time.
    pub fn scale_to_nominal(&mut self, reference: &[f64]) {
        let factor = REFERENCE_NOMINAL_MS / median(reference);
        eprintln!("perfbench: host speed scales times by {factor:.4}");
        for xs in [
            &mut self.setups,
            &mut self.ops,
            &mut self.passes,
            &mut self.points,
            &mut self.misses,
        ] {
            xs.iter_mut().for_each(|x| *x *= factor);
        }
        self.phase *= factor;
    }

    pub fn report(&self, out: &mut Outcome) {
        out.metric("setup_s", median(&self.setups), "s");
        out.metric("e2e_s", median(&self.ops) / 1e3, "s");
        out.metric("peak_rss_mib", self.rss, "MiB");
        out.metric("sweep_s", median(&self.passes), "s");
        out.metric("point_p50_ms", median(&self.points), "ms");
        out.metric("req_p50_ms", median(&self.ops), "ms");
        out.metric("req_p99_ms", percentile(&self.ops, 99.0), "ms");
        out.metric("miss_p50_ms", median(&self.misses), "ms");
        out.metric("req_per_s", self.ops.len() as f64 / self.phase, "1/s");
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, each a human-readable reason.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a failed check (makes the run incorrect).
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    /// Records one timed operation and whether its output was right.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Prints one readable line per metric, then the JSON result line
    /// (always the last line of standard output).
    pub fn print(&self) {
        for p in &self.problems {
            println!("check failed: {p}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<24} {value:>14.6} {unit}");
        }
        let mut metrics = JsonObject::new();
        for (name, value, unit) in &self.metrics {
            let mut m = JsonObject::new();
            m.f64("value", *value).str("unit", unit);
            metrics.raw(name, &m.close());
        }
        let mut out = JsonObject::new();
        out.bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.close());
        println!("{}", out.close());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&xs), 100.5);
        assert_eq!(percentile(&xs, 99.0), 198.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
    }
}
