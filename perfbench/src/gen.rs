//! Seeded input generation: the `tandem-sweep` rate grid and the
//! `serve-mixed` request stream. The same seed always yields the same
//! inputs; the program under test only ever sees the generated values.

use std::sync::Arc;

use mdl_serve::client::SolveLine;

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for an independent sub-stream (`tag` distinguishes
    /// streams derived from one seed).
    pub fn fork(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`, rounded to 4 decimals so rates print
    /// exactly in model text.
    pub fn rate(&mut self, lo: f64, hi: f64) -> f64 {
        ((lo + (hi - lo) * self.unit()) * 1e4).round() / 1e4
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Points in one `tandem-sweep` grid.
pub const GRID_POINTS: usize = 8;

/// The `tandem-sweep` grid: `GRID_POINTS` ascending `hyper_service`
/// rates evenly spaced over `[0.5, 2.0)`, shifted by a seeded offset
/// (a sweep walks its axis in order, which is what makes
/// nearest-neighbour warm starts pay). Even spacing gives every seed
/// the same distance between neighbours, so the seed moves the rates,
/// not how much a warm start saves.
pub fn rate_grid(seed: u64) -> Vec<f64> {
    let offset = Rng::fork(seed, 1).unit();
    let step = 1.5 / GRID_POINTS as f64;
    (0..GRID_POINTS)
        .map(|i| ((0.5 + step * (i as f64 + offset)) * 1e4).round() / 1e4)
        .collect()
}

/// Indices of the grid points checked against an independent cold
/// solve.
pub fn sample_points(seed: u64) -> [usize; 2] {
    let mut rng = Rng::fork(seed, 2);
    let a = rng.below(GRID_POINTS);
    let b = (a + 1 + rng.below(GRID_POINTS - 1)) % GRID_POINTS;
    [a, b]
}

/// Pool components in a generated `serve-mixed` model.
pub const POOLS: usize = 3;
/// Interchangeable machines per pool (each pool is a `2^WIDTH`-state
/// bitmask component).
pub const WIDTH: usize = 5;
/// Reachable states of a generated model: `2 * (2^WIDTH)^POOLS`.
pub const SERVE_STATES: u64 = 2 * (1 << (WIDTH * POOLS));
/// Lumped states: machines in a pool are interchangeable, so each pool
/// lumps to its busy count: `2 * (WIDTH + 1)^POOLS`.
pub const SERVE_LUMPED: u64 = 2 * (WIDTH as u64 + 1).pow(POOLS as u32);
/// Models in the hot set that set-up warms.
pub const HOT_SET: usize = 4;
/// Requests per block; exactly one per block is a fresh variant.
pub const BLOCK: usize = 20;
/// Leading spaces of a request line are drawn from `0..MAX_PAD`.
///
/// The daemon's JSON parser skips them. Parsing an 18 KB line takes
/// anywhere from 8 to 18 ms, depending on where its buffers fall in
/// memory relative to each other. With one line length, every hit of a
/// run, and of every run of one build, could fall in the same case, and
/// two builds could differ by half. Varying where the model text starts
/// makes each run's median a mix over placements.
pub const MAX_PAD: usize = 4096;

/// A generated `serve-mixed` model in the `.mdl` format, shaped like
/// `models/mixed_speed_pool.mdl`: a 2-state power controller gating job
/// starts on `POOLS` pools of `WIDTH` interchangeable machines, with
/// per-pool seeded rates. `tag` names the model in a leading comment,
/// so two variants never share a cache key even if their rates collide.
pub fn serve_model(rng: &mut Rng, tag: &str) -> String {
    use std::fmt::Write;
    let mut s = format!("# perfbench serve-mixed model {tag}\ncomponent ctrl 2 initial 0\n");
    for p in 0..POOLS {
        writeln!(s, "component pool{p} {} initial 0", 1 << WIDTH).unwrap();
    }
    // Narrow rate ranges keep every model's solve cost alike, so the
    // seed changes which requests miss, not how much work they are.
    let toggle = rng.rate(0.2, 0.3);
    write!(
        s,
        "\nevent toggle rate {toggle}\n  factor ctrl 0 1 1.0\n  factor ctrl 1 0 1.0\n"
    )
    .unwrap();
    let states = 1usize << WIDTH;
    for p in 0..POOLS {
        let high = rng.rate(1.6, 2.4);
        let low = rng.rate(0.4, 0.6);
        let finish = rng.rate(0.8, 1.2);
        for (name, rate, mode) in [("start_high", high, 0), ("start_low", low, 1)] {
            write!(
                s,
                "\nevent {name}{p} rate {rate}\n  factor ctrl {mode} {mode} 1.0\n"
            )
            .unwrap();
            for from in 0..states {
                for bit in 0..WIDTH {
                    if from & (1 << bit) == 0 {
                        writeln!(s, "  factor pool{p} {from} {} 1.0", from | (1 << bit)).unwrap();
                    }
                }
            }
        }
        write!(s, "\nevent finish{p} rate {finish}\n").unwrap();
        for from in 0..states {
            for bit in 0..WIDTH {
                if from & (1 << bit) != 0 {
                    writeln!(s, "  factor pool{p} {from} {} 1.0", from & !(1 << bit)).unwrap();
                }
            }
        }
    }
    s.push_str("\nreward sum\n");
    for p in 0..POOLS {
        for st in 1..states {
            writeln!(s, "  value pool{p} {st} {}.0", st.count_ones()).unwrap();
        }
    }
    s
}

/// The hot set: `HOT_SET` models every client draws its hits from.
pub fn hot_set(seed: u64) -> Vec<Arc<str>> {
    let mut rng = Rng::fork(seed, 3);
    (0..HOT_SET)
        .map(|i| serve_model(&mut rng, &format!("hot-{i}")).into())
        .collect()
}

/// One request of a client's stream.
#[derive(Debug, Clone)]
pub struct Request {
    /// The model text (hot-set texts are shared, not copied).
    pub model: Arc<str>,
    /// Whether this is a fresh variant (misses every stage cache).
    pub fresh: bool,
    /// The protocol line sent to the daemon.
    pub line: String,
}

/// The infinite, deterministic request stream of one client: blocks of
/// `BLOCK` requests, each with one fresh variant at a seeded position
/// and hot-set hits elsewhere.
pub struct Stream {
    hot: Vec<Arc<str>>,
    rng: Rng,
    client: usize,
    issued: usize,
    fresh_at: usize,
}

impl Stream {
    pub fn new(seed: u64, client: usize, hot: &[Arc<str>]) -> Self {
        Stream {
            hot: hot.to_vec(),
            rng: Rng::fork(seed, 100 + client as u64),
            client,
            issued: 0,
            fresh_at: 0,
        }
    }
}

impl Iterator for Stream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let pos = self.issued % BLOCK;
        if pos == 0 {
            self.fresh_at = self.rng.below(BLOCK);
        }
        let fresh = pos == self.fresh_at;
        let model = if fresh {
            let tag = format!("client-{}-req-{}", self.client, self.issued);
            serve_model(&mut self.rng, &tag).into()
        } else {
            self.hot[self.rng.below(self.hot.len())].clone()
        };
        self.issued += 1;
        let pad = " ".repeat(self.rng.below(MAX_PAD));
        let line = pad + &request_line(&model);
        Some(Request { model, fresh, line })
    }
}

/// The protocol line for a stationary, ordinary-lump solve of `model`.
pub fn request_line(model: &str) -> String {
    SolveLine::new(model)
        .lump("ordinary")
        .measure("stationary")
        .tenant("perfbench")
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64, client: usize, n: usize) -> Vec<String> {
        Stream::new(seed, client, &hot_set(seed))
            .take(n)
            .map(|r| r.line)
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_request_lines() {
        assert_eq!(lines(7, 0, 60), lines(7, 0, 60));
        assert_eq!(lines(7, 1, 60), lines(7, 1, 60));
        assert_eq!(rate_grid(7), rate_grid(7));
    }

    #[test]
    fn different_seeds_or_clients_give_different_lines() {
        assert_ne!(lines(7, 0, 60), lines(8, 0, 60));
        assert_ne!(lines(7, 0, 60), lines(7, 1, 60));
        assert_ne!(rate_grid(7), rate_grid(8));
    }

    #[test]
    fn every_block_has_exactly_one_fresh_variant() {
        let reqs: Vec<Request> = Stream::new(3, 0, &hot_set(3)).take(5 * BLOCK).collect();
        for block in reqs.chunks(BLOCK) {
            assert_eq!(block.iter().filter(|r| r.fresh).count(), 1);
        }
        let fresh: Vec<&Arc<str>> = reqs.iter().filter(|r| r.fresh).map(|r| &r.model).collect();
        for (i, a) in fresh.iter().enumerate() {
            assert!(
                fresh[i + 1..].iter().all(|b| a != b),
                "fresh variants repeat"
            );
        }
    }

    #[test]
    fn generated_models_parse_with_the_documented_sizes() {
        let parsed = mdl_cli::parse_model(&hot_set(1)[0]).expect("generated model parses");
        assert_eq!(
            parsed.model.sizes(),
            vec![2, 1 << WIDTH, 1 << WIDTH, 1 << WIDTH]
        );
        let grid = rate_grid(1);
        assert_eq!(grid.len(), GRID_POINTS);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        let [a, b] = sample_points(1);
        assert!(a != b && a < GRID_POINTS && b < GRID_POINTS);
    }
}
