//! Seeded request generators for the three workloads.
//!
//! A generator turns `--seed` into a deterministic request stream: the
//! same seed yields the same frames in the same order. The server only
//! ever sees the rendered frames.

use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_multisite::engine::{OptimizeRequest, SweepAxis};
use soctest_multisite::problem::{MultiSiteOptions, OptimizerConfig};
use soctest_multisite::service::{canonical_request, ClientFrame, OptimizeFrame, SocSpec};
use soctest_soc_model::writer::write_soc;
use soctest_soc_model::{Module, ModuleKind, Soc};
use std::collections::HashSet;

/// The workloads, in the order the documentation lists them.
pub const WORKLOADS: [&str; 3] = ["hit_replay", "sweep_fresh", "inline_cold"];

/// Every SOC name `soc-serve` resolves.
pub const NAMED_SOCS: [&str; 5] = ["d695", "p22810", "p34392", "p93791", "pnx8550_like"];

/// Hot `(named SOC, plain config)` pairs of `hit_replay`.
const HOT_SET: usize = 16;

/// Requests of the untimed warm pass of `sweep_fresh` and `inline_cold`.
const WARM_REQUESTS: usize = 96;

const MEBI: u64 = 1 << 20;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_5eed_0dd5_c0de)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A sorted random subset of `grid` with `lo..=hi` elements.
    pub fn subset<T: Copy>(&mut self, grid: &[T], lo: usize, hi: usize) -> Vec<T> {
        let mut indices: Vec<usize> = (0..grid.len()).collect();
        let take = self.range(lo as u64, hi as u64) as usize;
        for slot in 0..take {
            let pick = slot + self.below(grid.len() - slot);
            indices.swap(slot, pick);
        }
        let mut chosen = indices[..take].to_vec();
        chosen.sort_unstable();
        chosen.into_iter().map(|index| grid[index]).collect()
    }
}

/// One generated request: the SOC as the client spells it and the
/// engine request.
#[derive(Debug, Clone)]
pub struct Req {
    pub soc: SocSpec,
    pub request: OptimizeRequest,
}

impl Req {
    /// The NDJSON `Optimize` frame for this request under `id`.
    pub fn frame_line(&self, id: &str) -> String {
        serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
            request_id: id.to_string(),
            soc: self.soc.clone(),
            request: self.request.clone(),
            deadline_ms: None,
            stats: false,
        }))
        .expect("client frames serialise")
    }

    /// The identity of the request: SOC spelling plus canonical request.
    pub fn key(&self) -> String {
        let soc = match &self.soc {
            SocSpec::Named(name) => format!("N:{name}"),
            SocSpec::Inline(text) => format!("I:{text}"),
        };
        format!("{soc}\u{1}{}", canonical_request(&self.request))
    }
}

fn config(channels: usize, depth: u64) -> OptimizerConfig {
    OptimizerConfig::new(TestCell::new(
        AteSpec::new(channels, depth, 5.0e6),
        ProbeStation::paper_probe_station(),
    ))
}

fn named(soc: &str, request: OptimizeRequest) -> Req {
    Req {
        soc: SocSpec::Named(soc.to_string()),
        request,
    }
}

/// Channel counts every named SOC (the PNX stand-in included) can be
/// tested with at 4 Mi vectors or more.
const CHANNEL_GRID: [usize; 21] = [
    192, 208, 224, 240, 256, 272, 288, 304, 320, 336, 352, 368, 384, 400, 416, 432, 448, 464, 480,
    496, 512,
];
/// Vector-memory depths in Mi vectors, 4 to 7 in quarter steps, as
/// quarters.
const DEPTH_QUARTERS: [u64; 13] = [16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28];
const CONTACT_YIELDS: [f64; 5] = [0.999, 0.9993, 0.9995, 0.9998, 1.0];
const MANUFACTURING_YIELDS: [f64; 5] = [0.7, 0.8, 0.9, 0.95, 1.0];
/// Base channel counts and depths of every sweep: few, so sweeps over
/// the same SOC and base share their points.
const SWEEP_BASE_CHANNELS: [usize; 4] = [256, 320, 384, 512];
const SWEEP_BASE_DEPTHS: [u64; 4] = [16, 20, 24, 28];

fn quarters(q: u64) -> u64 {
    q * MEBI / 4
}

/// The request stream of one workload.
#[derive(Debug)]
pub enum Generator {
    HitReplay(HitReplay),
    SweepFresh(SweepFresh),
    InlineCold(InlineCold),
}

impl Generator {
    /// The generator of `workload` for `seed`; `None` for an unknown
    /// workload name.
    pub fn new(workload: &str, seed: u64) -> Option<Generator> {
        Some(match workload {
            "hit_replay" => Generator::HitReplay(HitReplay::new(seed)),
            "sweep_fresh" => Generator::SweepFresh(SweepFresh::new(seed)),
            "inline_cold" => Generator::InlineCold(InlineCold::new(seed)),
            _ => return None,
        })
    }

    /// The untimed warm pass: the requests sent before timing starts.
    /// For `hit_replay` it is the hot set, which leaves every hot
    /// answer in the server's solution cache.
    pub fn warm_pass(&mut self) -> Vec<Req> {
        match self {
            Generator::HitReplay(g) => g.hot.clone(),
            _ => (0..WARM_REQUESTS).map(|_| self.next_req()).collect(),
        }
    }

    /// The next request of the stream.
    pub fn next_req(&mut self) -> Req {
        match self {
            Generator::HitReplay(g) => g.hot[g.rng.below(g.hot.len())].clone(),
            Generator::SweepFresh(g) => g.next_req(),
            Generator::InlineCold(g) => g.next_req(),
        }
    }
}

/// `hit_replay`: a hot set of plain requests over all five named SOCs,
/// every one answered from the solution cache once the warm pass ran.
#[derive(Debug)]
pub struct HitReplay {
    rng: Rng,
    hot: Vec<Req>,
}

impl HitReplay {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        // Stratified: slot `i` pairs SOC `i mod 5` with the `i`-th of 16
        // channel strata, so every seed's hot set has the same mix of
        // SOC sizes and response sizes; the seed moves each pair within
        // its stratum.
        let mut hot = Vec::with_capacity(HOT_SET);
        for slot in 0..HOT_SET {
            let soc = NAMED_SOCS[slot % NAMED_SOCS.len()];
            let stratum = CHANNEL_GRID.len() * slot / HOT_SET;
            let channels = CHANNEL_GRID[stratum];
            let depth = quarters(rng.pick(&DEPTH_QUARTERS));
            hot.push(named(soc, OptimizeRequest::new(config(channels, depth))));
        }
        HitReplay { rng, hot }
    }
}

/// `sweep_fresh`: never-repeating plain requests and sweeps over the
/// named SOCs, with sweep points drawn from shared grids.
#[derive(Debug)]
pub struct SweepFresh {
    rng: Rng,
    seen: HashSet<String>,
}

impl SweepFresh {
    fn new(seed: u64) -> Self {
        SweepFresh {
            rng: Rng::new(seed),
            seen: HashSet::new(),
        }
    }

    fn next_req(&mut self) -> Req {
        loop {
            let req = if self.rng.coin() {
                self.plain()
            } else {
                self.sweep()
            };
            if self.seen.insert(req.key()) {
                return req;
            }
        }
    }

    /// A plain request. Plain requests enable stimulus broadcast and no
    /// sweep point does, so no plain request is ever answered by a
    /// memoised sweep point and `result_hits` stays 0.
    fn plain(&mut self) -> Req {
        let rng = &mut self.rng;
        let soc = rng.pick(&NAMED_SOCS);
        let channels = rng.range(24, 64) as usize * 8;
        let depth = rng.range(64, 112) * MEBI / 16;
        let mut options = MultiSiteOptions::baseline().with_broadcast();
        if rng.coin() {
            options = options.with_abort_on_fail();
        }
        if rng.coin() {
            options = options.with_retest();
        }
        let cfg = config(channels, depth)
            .with_options(options)
            .with_contact_yield(1.0 - rng.range(0, 20) as f64 * 1e-4)
            .with_manufacturing_yield(1.0 - rng.range(0, 40) as f64 * 0.01);
        named(soc, OptimizeRequest::new(cfg))
    }

    /// A sweep over one of the four axes: a base config from a small
    /// set, points a random subset of the axis grid.
    fn sweep(&mut self) -> Req {
        let rng = &mut self.rng;
        let soc = rng.pick(&NAMED_SOCS);
        let base = config(
            rng.pick(&SWEEP_BASE_CHANNELS),
            quarters(rng.pick(&SWEEP_BASE_DEPTHS)),
        );
        let sweep = match rng.below(4) {
            0 => SweepAxis::Channels(rng.subset(&CHANNEL_GRID, 2, 4)),
            1 => SweepAxis::DepthVectors(
                rng.subset(&DEPTH_QUARTERS, 2, 4)
                    .into_iter()
                    .map(quarters)
                    .collect(),
            ),
            2 => SweepAxis::ContactYield {
                depths: rng
                    .subset(&DEPTH_QUARTERS, 2, 3)
                    .into_iter()
                    .map(quarters)
                    .collect(),
                contact_yields: rng.subset(&CONTACT_YIELDS, 1, 2),
            },
            _ => SweepAxis::ManufacturingYield {
                max_sites: rng.range(2, 8) as usize,
                manufacturing_yields: rng.subset(&MANUFACTURING_YIELDS, 2, 3),
            },
        };
        named(soc, OptimizeRequest::new(base).with_sweep(sweep))
    }
}

/// `inline_cold`: every request carries a never-seen inline SOC whose
/// modules are half drawn from a shared pool of shapes, half fresh.
#[derive(Debug)]
pub struct InlineCold {
    rng: Rng,
    seed: u64,
    pool: Vec<Module>,
    next: u64,
}

/// Module shapes shared across the inline SOCs of one run.
const SHAPE_POOL: usize = 64;

impl InlineCold {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let pool = (0..SHAPE_POOL)
            .map(|index| random_module(&mut rng, format!("pool{index}")))
            .collect();
        InlineCold {
            rng,
            seed,
            pool,
            next: 0,
        }
    }

    fn next_req(&mut self) -> Req {
        let index = self.next;
        self.next += 1;
        let rng = &mut self.rng;
        let count = rng.range(20, 80) as usize;
        let modules: Vec<Module> = (0..count)
            .map(|slot| {
                let name = format!("m{slot}");
                if rng.coin() {
                    let shape = &self.pool[rng.below(self.pool.len())];
                    rename(shape, name)
                } else {
                    random_module(rng, name)
                }
            })
            .collect();
        // The name carries the seed and ordinal, so every SOC is new to
        // the server even when two draws happen to share every module.
        let soc = Soc::from_modules(format!("inline_{:x}_{index}", self.seed), modules);
        let cfg = config(rng.range(16, 32) as usize * 8, rng.range(2, 7) * MEBI);
        Req {
            soc: SocSpec::Inline(write_soc(&soc)),
            request: OptimizeRequest::new(cfg),
        }
    }
}

/// A module in the size range of the synthetic ITC'02-like generator:
/// logic cores with 1-16 scan chains, and one memory in eight.
fn random_module(rng: &mut Rng, name: String) -> Module {
    let io = rng.range(8, 120) as u32;
    let builder = Module::builder(name).inputs(io / 2).outputs(io - io / 2);
    if rng.below(8) == 0 {
        builder
            .kind(ModuleKind::Memory)
            .patterns(rng.range(20, 400) * 8)
            .scan_chain(rng.range(20, 400))
            .build()
    } else {
        let chains = rng.range(1, 16) as usize;
        let lengths: Vec<u64> = (0..chains).map(|_| rng.range(20, 400)).collect();
        builder
            .kind(ModuleKind::Logic)
            .patterns(rng.range(20, 400))
            .scan_chains(lengths)
            .build()
    }
}

fn rename(module: &Module, name: String) -> Module {
    Module::builder(name)
        .kind(module.kind())
        .patterns(module.patterns())
        .inputs(module.inputs())
        .outputs(module.outputs())
        .bidirs(module.bidirs())
        .scan_chains(module.scan_chains().iter().copied())
        .build()
}
