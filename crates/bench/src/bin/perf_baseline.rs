//! Performance baseline runner: times the optimizer hot paths and writes
//! `BENCH_optimizer.json` so subsequent changes have a perf trajectory to
//! compare against.
//!
//! Measured in one run (same binary, same machine state):
//!
//! * `TimeTable::build` through the fast row kernel vs. the naive
//!   per-(module, width) `design_wrapper` loop
//!   (`TimeTable::build_reference`) on the 274-module PNX8550 stand-in at
//!   width 256 — including a full equality check of the two tables;
//! * the incremental row evaluation (prefix-seeded LPT + floor skip) vs.
//!   the non-incremental per-width kernel loop
//!   (`test_time_row_reference`), rows checked identical;
//! * the heap-based LPT (`lpt_partition`) vs. the linear-scan formulation
//!   (`lpt_partition_reference`) on a chain-rich flattened shape —
//!   asserted bit-identical (assignment and loads) before timing;
//! * the demand-driven `LazyTimeTable` under the two-step `optimize`,
//!   including the `rows_built / rows_total` cell ratio (how little of the
//!   full table the optimizer actually probes);
//! * the end-to-end two-step `optimize` on d695 and the PNX8550 stand-in;
//! * the Figure 6(a) `channel_sweep` on the PNX8550 stand-in;
//! * an attribution ladder over a warm table
//!   (`optimize/pnx8550_like/{eager_table, lazy, lazy+cancel}`, plus
//!   `channel_sweep/pnx8550_like/fig6a/cancel`): one lookup-path layer
//!   per rung, each rung asserted bit-identical to the one before it
//!   before timing; informational, not gated;
//! * a heterogeneous engine batch (Figures 6(a)+6(b)+7(a)+7(b) at once)
//!   through one shared-table `Engine::run_batch`, against the same four
//!   experiments through the per-call-table free functions — results
//!   asserted identical before timing;
//! * the same figure batch traced (`Engine::run_batch_traced`) vs
//!   untraced — responses asserted bit-identical first; the overhead
//!   ratio is printed but not gated, documenting that the
//!   `RequestTrace` observability seam is effectively free when off and
//!   near-free when on;
//! * a **mixed** batch (plain optimizations + every sweep shape) under
//!   nested request x point parallelism on the persistent work-stealing
//!   pool (`engine_batch/pnx8550_like/mixed_parallel`), against the same
//!   batch on a sequential engine — responses asserted bit-identical
//!   before timing;
//! * the figure batch through the service-layer [`SolutionCache`]: every
//!   `cache_cold` iteration pays a fresh engine plus all four
//!   computations, every `cache_hot` iteration answers the identical
//!   requests from the warmed cache — hot responses asserted
//!   bit-identical to the computed ones before timing, and the hot mean
//!   is required to be at least 5x faster;
//! * sweep-point reuse (`sweep_point_reuse`): the Figure 6(a) channel
//!   sweep through a point-memo-backed engine sharing one namespace
//!   with the solution cache — a cold iteration computes every point, a
//!   warm iteration answers every point from the memo. Before timing,
//!   the memo-backed sweep is asserted bit-identical to a bare engine's,
//!   a repeat sweep must reuse every point, and a *plain* request for a
//!   swept channel count is hard-gated to be a full cache `Hit` that
//!   computes nothing;
//! * a simulated `--cache-dir` restart (`row_store_reuse`): a warmed
//!   [`RowStore`] saved to `rows.v1`, reloaded into a brand-new store as
//!   a second process would, and a fresh store-backed engine serving the
//!   batch with **zero** rows rebuilt — asserted, along with response
//!   bit-identity, before timing;
//! * the frame reader on an ~8 KB inline `Optimize` frame built from the
//!   PNX stand-in's modules (`protocol/parse_inline_frame`), asserted to
//!   parse back to the frame it was rendered from;
//! * a `--cache-dir` `solutions.v1` load of 256 entries
//!   (`cache/load_solutions`), asserted before timing to merge every
//!   entry and answer every saved request as an identical `Hit`;
//! * whole `Optimize` frames through an in-process server on a warm
//!   pnx8550_like session (`service/named_miss/pnx8550_like`: 32
//!   distinct plain requests per iteration, every one a cache miss;
//!   `service/named_hit/pnx8550_like`: 32 identical ones, every one a
//!   hit), recorded per frame, with every reply asserted equal to the
//!   `Result` line of a fresh engine's answer before timing;
//!   informational, not gated;
//! * the socket transport under concurrent load
//!   (`service/concurrent_connections`): two long-lived Unix-socket
//!   servers, each timed iteration a fresh wave of 32 distinct
//!   single-SOC optimizations — four connections over four executors
//!   against the same wave on one connection over one executor — with
//!   every per-request response asserted bit-identical between the two
//!   modes before timing.
//!
//! Run with `cargo run --release --bin perf_baseline`. The report lands in
//! the current working directory.

use serde::Serialize;
use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_bench::{
    fig6a_channel_counts, fig6b_depths, fig7a_contact_yields, fig7b_manufacturing_yields,
    paper_config, pnx_soc,
};
use soctest_multisite::engine::{Engine, OptimizeRequest, SweepAxis};
use soctest_multisite::optimizer::{optimize, optimize_with_table};
use soctest_multisite::problem::OptimizerConfig;
use soctest_multisite::service::{
    parse_client_frame, render_server_frame, BoundListener, CacheOutcome, CancelToken, ClientFrame,
    ClientStream, ListenAddr, OptimizeFrame, ResultFrame, Server, ServerConfig, ServerFrame,
    SessionPointMemo, SocSpec, SolutionCache, TransportConfig,
};
use soctest_multisite::sweep::{
    abort_on_fail_sweep, channel_sweep, contact_yield_sweep, depth_sweep,
};
use soctest_soc_model::benchmarks::d695;
use soctest_soc_model::writer::write_soc;
use soctest_soc_model::Soc;
use soctest_tam::{max_tam_width, LazyTimeTable, RowStore, TimeTable};
use soctest_wrapper::lpt::{lpt_partition, lpt_partition_reference};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where the report is written (relative to the working directory).
const REPORT_PATH: &str = "BENCH_optimizer.json";
/// Minimum measured wall-clock per benchmark before the mean is trusted.
const MIN_MEASURE_SECONDS: f64 = 0.5;
/// Upper bound on measured iterations per benchmark.
const MAX_ITERATIONS: u64 = 40;

#[derive(Debug, Serialize)]
struct Measurement {
    name: String,
    iterations: u64,
    mean_seconds: f64,
}

#[derive(Debug, Serialize)]
struct TimeTableComparison {
    soc: String,
    modules: usize,
    max_width: usize,
    fast_mean_seconds: f64,
    naive_mean_seconds: f64,
    speedup: f64,
    tables_identical: bool,
}

#[derive(Debug, Serialize)]
struct LazyTableStats {
    soc: String,
    modules: usize,
    max_width: usize,
    /// `(module, width)` cells the optimizer actually probed.
    rows_built: usize,
    /// Cells an eager build would compute (`modules · max_width`).
    rows_total: usize,
    /// `rows_built / rows_total` — the fraction of the table the two-step
    /// optimizer really needs.
    ratio: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    schema: String,
    threads: usize,
    timetable_build: TimeTableComparison,
    lazy_timetable: LazyTableStats,
    measurements: Vec<Measurement>,
}

/// An in-memory `'static` sink for `Server::serve`, read back after the
/// session.
#[derive(Debug, Clone, Default)]
struct Transcript(Arc<Mutex<Vec<u8>>>);

impl Write for Transcript {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Times `body` with one warm-up run and an adaptive iteration count.
fn measure<R, F: FnMut() -> R>(name: &str, mut body: F) -> Measurement {
    std::hint::black_box(body());
    let mut iterations = 0u64;
    let mut elapsed = 0.0f64;
    while iterations < MAX_ITERATIONS && elapsed < MIN_MEASURE_SECONDS {
        let start = Instant::now();
        std::hint::black_box(body());
        elapsed += start.elapsed().as_secs_f64();
        iterations += 1;
    }
    let mean_seconds = elapsed / iterations as f64;
    println!("{name:<45} {mean_seconds:>12.6} s/iter  ({iterations} iters)");
    Measurement {
        name: name.to_string(),
        iterations,
        mean_seconds,
    }
}

fn main() {
    let pnx = pnx_soc();
    let max_width = 256usize;
    println!(
        "perf_baseline: {} modules in {}, table width {max_width}, {} worker thread(s)\n",
        pnx.num_modules(),
        pnx.name(),
        rayon::current_num_threads()
    );

    // --- TimeTable::build: row kernel vs naive wrapper-design loop -------
    let fast = measure("timetable_build/pnx8550_like/fast", || {
        TimeTable::build(&pnx, max_width)
    });
    let naive = measure("timetable_build/pnx8550_like/naive", || {
        TimeTable::build_reference(&pnx, max_width)
    });
    let tables_identical =
        TimeTable::build(&pnx, max_width) == TimeTable::build_reference(&pnx, max_width);
    let speedup = naive.mean_seconds / fast.mean_seconds;
    println!("\ntimetable_build speedup: {speedup:.1}x (identical: {tables_identical})\n");

    // --- Row kernel: incremental vs non-incremental ----------------------
    let mut measurements = Vec::new();
    {
        use soctest_wrapper::row::{test_time_row_reference, RowKernel};
        let mut kernel = RowKernel::new();
        let mut row = Vec::new();
        measurements.push(measure("row_kernel/pnx8550_like/incremental", || {
            for module in pnx.modules() {
                kernel.compute_into(module, max_width, &mut row);
                std::hint::black_box(&row);
            }
        }));
        measurements.push(measure("row_kernel/pnx8550_like/reference", || {
            for module in pnx.modules() {
                std::hint::black_box(test_time_row_reference(module, max_width));
            }
        }));
        let rows_identical = pnx.modules().iter().all(|m| {
            RowKernel::new().compute(m, max_width) == test_time_row_reference(m, max_width)
        });
        assert!(
            rows_identical,
            "incremental and reference row kernels disagree"
        );
    }

    // --- Heap LPT vs scalar scan -----------------------------------------
    // A chain-rich shape (every PNX module's chains concatenated — the
    // flattened Problem 2 profile) over the narrow-region widths where the
    // heap matters. Bit-identity is asserted before anything is timed.
    let all_chains: Vec<u64> = pnx
        .modules()
        .iter()
        .flat_map(|m| m.scan_chains().iter().map(|c| c.length))
        .collect();
    let lpt_bins = [4usize, 16, 64, 192];
    for &bins in &lpt_bins {
        assert_eq!(
            lpt_partition(&all_chains, bins),
            lpt_partition_reference(&all_chains, bins),
            "heap LPT and scalar LPT disagree at {bins} bins"
        );
    }
    measurements.push(measure("heap_lpt/pnx8550_flat_chains/heap", || {
        for &bins in &lpt_bins {
            std::hint::black_box(lpt_partition(&all_chains, bins));
        }
    }));
    measurements.push(measure("heap_lpt/pnx8550_flat_chains/scalar", || {
        for &bins in &lpt_bins {
            std::hint::black_box(lpt_partition_reference(&all_chains, bins));
        }
    }));

    // --- Lazy table under the optimizer ----------------------------------
    let pnx_config = paper_config();
    let lazy_width = max_tam_width(pnx_config.test_cell.ate.channels);
    measurements.push(measure("lazy_timetable/pnx8550_like/optimize", || {
        let table = LazyTimeTable::new(&pnx, lazy_width);
        optimize_with_table(pnx.name(), &table, &pnx_config)
            .expect("the PNX stand-in fits the paper's test cell")
    }));
    let lazy_stats = {
        let table = LazyTimeTable::new(&pnx, lazy_width);
        let lazy_solution = optimize_with_table(pnx.name(), &table, &pnx_config)
            .expect("the PNX stand-in fits the paper's test cell");
        // Bit-identity of the solution against the eager table.
        let eager = TimeTable::build(&pnx, lazy_width);
        let eager_solution = optimize_with_table(pnx.name(), &eager, &pnx_config)
            .expect("the PNX stand-in fits the paper's test cell");
        assert_eq!(
            lazy_solution, eager_solution,
            "lazy and eager tables must produce identical solutions"
        );
        LazyTableStats {
            soc: pnx.name().to_string(),
            modules: pnx.num_modules(),
            max_width: lazy_width,
            rows_built: table.cells_built(),
            rows_total: table.cells_total(),
            ratio: table.build_ratio(),
        }
    };
    println!(
        "\nlazy_timetable: {} / {} cells probed by optimize (ratio {:.4})\n",
        lazy_stats.rows_built, lazy_stats.rows_total, lazy_stats.ratio
    );

    // --- End-to-end optimizer runs ---------------------------------------
    let d695_soc = d695();
    let d695_config = OptimizerConfig::new(TestCell::new(
        AteSpec::new(256, 96 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    ));
    measurements.push(measure("optimize/d695", || {
        optimize(&d695_soc, &d695_config).expect("d695 fits its test cell")
    }));
    measurements.push(measure("optimize/pnx8550_like", || {
        optimize(&pnx, &pnx_config).expect("the PNX stand-in fits the paper's test cell")
    }));

    // --- Figure 6(a) channel sweep ---------------------------------------
    let channels = fig6a_channel_counts();
    measurements.push(measure("channel_sweep/pnx8550_like/fig6a", || {
        channel_sweep(&pnx, &pnx_config, &channels).expect("every fig6a point is feasible")
    }));

    // --- Attribution ladder: one lookup-path layer per rung --------------
    // The same PNX optimization over an already-warm table, adding one
    // layer per rung: a fully built eager table, the session engine's
    // lazy table, then the lazy table behind a cancellation token (polled
    // once per table row). `fig6a/cancel` is `fig6a` above served under a
    // token. Every rung is asserted bit-identical to the rung before it;
    // the numbers are informational and not gated.
    {
        let plain = OptimizeRequest::new(pnx_config);
        let sweep =
            OptimizeRequest::new(pnx_config).with_sweep(SweepAxis::Channels(channels.clone()));
        let eager = TimeTable::build(&pnx, lazy_width);
        let engine = Engine::new(&pnx);
        let token = CancelToken::new();
        // `channel_sweep`'s one-shot engine, sized once for the sweep.
        let sweep_engine = || {
            Engine::builder(&pnx)
                .max_channels(sweep.peak_channels())
                .build()
        };
        let eager_solution = optimize_with_table(pnx.name(), &eager, &pnx_config)
            .expect("the PNX stand-in fits the paper's test cell");
        let lazy = engine.run(&plain).expect("the PNX stand-in fits");
        assert_eq!(
            lazy.clone().into_solution().as_ref(),
            Some(&eager_solution),
            "ladder: the lazy rung diverged from the eager table"
        );
        assert_eq!(
            engine.run_with_cancel(&plain, &token),
            Ok(lazy),
            "ladder: the cancel rung diverged from the lazy one"
        );
        assert_eq!(
            sweep_engine()
                .run_with_cancel(&sweep, &token)
                .expect("every fig6a point is feasible")
                .curves()
                .map(|curves| curves[0].points.clone()),
            Some(channel_sweep(&pnx, &pnx_config, &channels).expect("feasible")),
            "ladder: fig6a/cancel diverged from fig6a"
        );
        measurements.push(measure("optimize/pnx8550_like/eager_table", || {
            optimize_with_table(pnx.name(), &eager, &pnx_config).expect("feasible")
        }));
        measurements.push(measure("optimize/pnx8550_like/lazy", || {
            engine.run(&plain).expect("feasible")
        }));
        measurements.push(measure("optimize/pnx8550_like/lazy+cancel", || {
            engine.run_with_cancel(&plain, &token).expect("feasible")
        }));
        measurements.push(measure("channel_sweep/pnx8550_like/fig6a/cancel", || {
            sweep_engine()
                .run_with_cancel(&sweep, &token)
                .expect("every fig6a point is feasible")
        }));
    }

    // --- Engine batch: one shared table vs per-call tables ---------------
    // The heterogeneous Section 7 batch — all of Figures 6(a), 6(b), 7(a)
    // and 7(b) at once — served by one engine over one table, against the
    // legacy shape where every free function wires its own table.
    let depths = fig6b_depths();
    let contact_yields = fig7a_contact_yields();
    let manufacturing_yields = fig7b_manufacturing_yields();
    let figure_batch = [
        OptimizeRequest::new(pnx_config).with_sweep(SweepAxis::Channels(channels.clone())),
        OptimizeRequest::new(pnx_config).with_sweep(SweepAxis::DepthVectors(depths.clone())),
        OptimizeRequest::new(pnx_config).with_sweep(SweepAxis::ContactYield {
            depths: depths.clone(),
            contact_yields: contact_yields.clone(),
        }),
        OptimizeRequest::new(pnx_config).with_sweep(SweepAxis::ManufacturingYield {
            max_sites: 8,
            manufacturing_yields: manufacturing_yields.clone(),
        }),
    ];
    // Equivalence before timing: the batched responses must reproduce the
    // per-call free-function results bit for bit.
    {
        let engine = Engine::new(&pnx);
        let batched = engine.run_batch(&figure_batch);
        let curves = |index: usize| {
            batched[index]
                .as_ref()
                .expect("every figure request is feasible")
                .curves()
                .expect("sweeping requests answer with curves")
        };
        assert_eq!(
            curves(0)[0].points,
            channel_sweep(&pnx, &pnx_config, &channels).expect("feasible"),
            "engine batch and per-call channel sweep disagree"
        );
        assert_eq!(
            curves(1)[0].points,
            depth_sweep(&pnx, &pnx_config, &depths).expect("feasible"),
            "engine batch and per-call depth sweep disagree"
        );
        assert_eq!(
            curves(2),
            contact_yield_sweep(&pnx, &pnx_config, &depths, &contact_yields)
                .expect("feasible")
                .as_slice(),
            "engine batch and per-call contact-yield sweep disagree"
        );
        assert_eq!(
            curves(3),
            abort_on_fail_sweep(&pnx, &pnx_config, 8, &manufacturing_yields)
                .expect("feasible")
                .as_slice(),
            "engine batch and per-call abort-on-fail sweep disagree"
        );
    }
    measurements.push(measure("engine_batch/pnx8550_like/shared_table", || {
        let engine = Engine::new(&pnx);
        for result in engine.run_batch(&figure_batch) {
            std::hint::black_box(result.expect("every figure request is feasible"));
        }
    }));
    measurements.push(measure("engine_batch/pnx8550_like/per_call_tables", || {
        channel_sweep(&pnx, &pnx_config, &channels).expect("feasible");
        depth_sweep(&pnx, &pnx_config, &depths).expect("feasible");
        contact_yield_sweep(&pnx, &pnx_config, &depths, &contact_yields).expect("feasible");
        abort_on_fail_sweep(&pnx, &pnx_config, 8, &manufacturing_yields).expect("feasible");
    }));

    // --- Traced vs untraced: the observability seam must be ~free --------
    // The same figure batch through `run_batch_traced`. Responses are
    // asserted bit-identical to the untraced batch before timing; the
    // overhead ratio is reported for the perf trajectory but not gated —
    // the seam only snapshots epoch counters, so the two means should sit
    // within run-to-run noise of each other.
    {
        let plain_engine = Engine::new(&pnx);
        let traced_engine = Engine::new(&pnx);
        let plain = plain_engine.run_batch(&figure_batch);
        let (observed, trace) = traced_engine.run_batch_traced(&figure_batch);
        assert_eq!(
            plain, observed,
            "traced figure batch diverged from the untraced one"
        );
        assert_eq!(trace.requests, figure_batch.len() as u64);
        assert!(
            trace.cells_built() > 0,
            "a cold traced batch built no cells"
        );
    }
    let batch_untraced = measure("engine_batch/pnx8550_like/stats_off", || {
        let engine = Engine::new(&pnx);
        for result in engine.run_batch(&figure_batch) {
            std::hint::black_box(result.expect("every figure request is feasible"));
        }
    });
    let batch_traced = measure("engine_batch/pnx8550_like/stats_on", || {
        let engine = Engine::new(&pnx);
        let (results, trace) = engine.run_batch_traced(&figure_batch);
        for result in results {
            std::hint::black_box(result.expect("every figure request is feasible"));
        }
        std::hint::black_box(trace);
    });
    let trace_overhead = batch_traced.mean_seconds / batch_untraced.mean_seconds;
    println!("\ntrace overhead: {trace_overhead:.3}x traced over untraced (informational)\n");
    measurements.push(batch_untraced);
    measurements.push(batch_traced);

    // --- Mixed batch: nested request x point parallelism ------------------
    // A genuinely mixed batch (plain optimizations interleaved with every
    // sweep shape) that the pre-pool engine served sequentially across
    // requests. On the work-stealing pool the whole batch fans out at the
    // request level and again inside each sweep; results are asserted
    // bit-identical to the fully sequential engine before anything is
    // timed.
    let mixed_batch: Vec<OptimizeRequest> = {
        let mut batch = vec![OptimizeRequest::new(pnx_config)];
        batch.extend(figure_batch.iter().cloned());
        let mut deep_cfg = pnx_config;
        deep_cfg.test_cell.ate = deep_cfg
            .test_cell
            .ate
            .with_depth(deep_cfg.test_cell.ate.vector_memory_depth * 2);
        batch.push(OptimizeRequest::new(deep_cfg));
        batch
    };
    {
        let sequential_engine = Engine::builder(&pnx).sequential().build();
        let parallel_engine = Engine::new(&pnx);
        let sequential: Vec<_> = sequential_engine.run_batch(&mixed_batch);
        let parallel: Vec<_> = parallel_engine.run_batch(&mixed_batch);
        assert_eq!(sequential.len(), parallel.len());
        for (index, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.as_ref().expect("every mixed request is feasible"),
                p.as_ref().expect("every mixed request is feasible"),
                "mixed batch request {index}: nested-parallel result diverged from sequential"
            );
        }
    }
    measurements.push(measure("engine_batch/pnx8550_like/mixed_parallel", || {
        let engine = Engine::new(&pnx);
        for result in engine.run_batch(&mixed_batch) {
            std::hint::black_box(result.expect("every mixed request is feasible"));
        }
    }));
    measurements.push(measure(
        "engine_batch/pnx8550_like/mixed_sequential",
        || {
            let engine = Engine::builder(&pnx).sequential().build();
            for result in engine.run_batch(&mixed_batch) {
                std::hint::black_box(result.expect("every mixed request is feasible"));
            }
        },
    ));

    // --- Solution cache: cold computation vs exact hit -------------------
    // The figure batch through the service-layer result cache. A cold
    // iteration pays a fresh engine plus all four computations; a hot
    // iteration answers the identical requests from the warmed cache.
    // Before timing anything, the warmed cache's answers are asserted
    // bit-identical to the freshly computed ones.
    let hot_cache = SolutionCache::new(256, 64 * 1024 * 1024);
    {
        let engine = Engine::new(&pnx);
        let token = CancelToken::new();
        for request in &figure_batch {
            let (_, computed) = hot_cache
                .run_coalesced(0, request, &token, || engine.run(request))
                .expect("every figure request is feasible");
            let (outcome, cached) = hot_cache
                .run_coalesced(0, request, &token, || engine.run(request))
                .expect("every figure request is feasible");
            assert!(outcome.is_cached(), "repeated request missed the cache");
            assert_eq!(
                computed, cached,
                "cached response diverged from the computed one"
            );
        }
    }
    let cache_cold = measure("engine_batch/pnx8550_like/cache_cold", || {
        let cache = SolutionCache::new(256, 64 * 1024 * 1024);
        let engine = Engine::new(&pnx);
        let token = CancelToken::new();
        for request in &figure_batch {
            let served = cache
                .run_coalesced(0, request, &token, || engine.run(request))
                .expect("every figure request is feasible");
            std::hint::black_box(served);
        }
    });
    let cache_hot = measure("engine_batch/pnx8550_like/cache_hot", || {
        let token = CancelToken::new();
        for request in &figure_batch {
            let served = hot_cache
                .run_coalesced(0, request, &token, || {
                    panic!("a warmed cache must not recompute")
                })
                .expect("every figure request is feasible");
            std::hint::black_box(served);
        }
    });
    let cache_speedup = cache_cold.mean_seconds / cache_hot.mean_seconds;
    println!("\nsolution_cache speedup: {cache_speedup:.1}x hot over cold\n");
    measurements.push(cache_cold);
    measurements.push(cache_hot);

    // --- Sweep-point reuse: memoised points pre-answer plain requests ----
    // The Figure 6(a) channel sweep through a point-memo-backed engine:
    // every point lands in the solution cache under its plain
    // effective-config key, so a warm iteration answers every point from
    // the memo and a standalone request for a swept channel count is a
    // full cache hit. All of that is asserted — bit-identically — before
    // anything is timed.
    let sweep_request = &figure_batch[0];
    let point_cache = Arc::new(SolutionCache::new(256, 64 * 1024 * 1024));
    {
        let bare = Engine::new(&pnx)
            .run(sweep_request)
            .expect("the fig6a sweep is feasible");
        let memo_engine = Engine::builder(&pnx)
            .point_memo(Arc::new(SessionPointMemo::new(Arc::clone(&point_cache), 0)))
            .build();
        let (first, cold_trace) = memo_engine.run_traced(sweep_request);
        assert_eq!(
            first.expect("the fig6a sweep is feasible"),
            bare,
            "the point memo changed the sweep's answer"
        );
        assert_eq!(cold_trace.points_computed, channels.len() as u64);
        // A fresh engine over the warmed cache reuses every point.
        let warm_engine = Engine::builder(&pnx)
            .point_memo(Arc::new(SessionPointMemo::new(Arc::clone(&point_cache), 0)))
            .build();
        let (second, warm_trace) = warm_engine.run_traced(sweep_request);
        assert_eq!(second.expect("the fig6a sweep is feasible"), bare);
        assert_eq!(
            warm_trace.points_reused,
            channels.len() as u64,
            "a repeat sweep must reuse every memoised point"
        );
        assert_eq!(warm_trace.points_computed, 0);
        // Hard gate: after the sweep, a *plain* request for a swept
        // channel count is a cache Hit that computes nothing at all —
        // the compute closure is unreachable.
        let mut point_cfg = pnx_config;
        point_cfg.test_cell.ate = point_cfg.test_cell.ate.with_channels(channels[0]);
        let plain = OptimizeRequest::new(point_cfg);
        let (outcome, served) = point_cache
            .run_coalesced(0, &plain, &CancelToken::new(), || {
                panic!("a swept point must answer the plain request with zero cells computed")
            })
            .expect("a cached point cannot fail");
        assert_eq!(
            outcome,
            CacheOutcome::Hit,
            "the post-sweep plain request must be a cache hit"
        );
        assert_eq!(
            served,
            Engine::new(&pnx)
                .run(&plain)
                .expect("every fig6a point is feasible"),
            "the memoised point diverged from a cold computation"
        );
    }
    let sweep_cold = measure("sweep_point_reuse/pnx8550_like/cold", || {
        let cache = Arc::new(SolutionCache::new(256, 64 * 1024 * 1024));
        let engine = Engine::builder(&pnx)
            .point_memo(Arc::new(SessionPointMemo::new(cache, 0)))
            .build();
        engine
            .run(sweep_request)
            .expect("the fig6a sweep is feasible")
    });
    let sweep_warm = measure("sweep_point_reuse/pnx8550_like/warm", || {
        let engine = Engine::builder(&pnx)
            .point_memo(Arc::new(SessionPointMemo::new(Arc::clone(&point_cache), 0)))
            .build();
        engine
            .run(sweep_request)
            .expect("the fig6a sweep is feasible")
    });
    let sweep_reuse_speedup = sweep_cold.mean_seconds / sweep_warm.mean_seconds;
    println!("\nsweep_point_reuse speedup: {sweep_reuse_speedup:.1}x warm over cold\n");
    measurements.push(sweep_cold);
    measurements.push(sweep_warm);

    // --- Cross-process row-store reuse ------------------------------------
    // Simulates the `--cache-dir` restart: a warmed store saved to
    // `rows.v1`, loaded into a brand-new store exactly as a second
    // process would, and a fresh store-backed engine serving the batch.
    // Zero rows rebuilt and response bit-identity are asserted before
    // anything is timed.
    let rows_path =
        std::env::temp_dir().join(format!("soctest-perf-rows-{}.v1", std::process::id()));
    {
        let warm = Arc::new(RowStore::new());
        let engine = Engine::builder(&pnx).row_store(Arc::clone(&warm)).build();
        for result in engine.run_batch(&figure_batch) {
            std::hint::black_box(result.expect("every figure request is feasible"));
        }
        warm.save(&rows_path).expect("save the warm row store");
    }
    {
        let reloaded = Arc::new(RowStore::new());
        reloaded.load(&rows_path).expect("load the warm row store");
        let engine = Engine::builder(&pnx)
            .row_store(Arc::clone(&reloaded))
            .build();
        let store_backed = engine.run_batch(&figure_batch);
        let baseline = Engine::new(&pnx).run_batch(&figure_batch);
        for (index, (s, b)) in store_backed.iter().zip(&baseline).enumerate() {
            assert_eq!(
                s.as_ref().expect("every figure request is feasible"),
                b.as_ref().expect("every figure request is feasible"),
                "figure request {index}: store-backed result diverged from the plain engine"
            );
        }
        assert_eq!(
            reloaded.stats().cells_computed,
            0,
            "a warm reloaded store rebuilt rows"
        );
    }
    measurements.push(measure("engine_batch/pnx8550_like/row_store_reuse", || {
        let store = Arc::new(RowStore::new());
        store.load(&rows_path).expect("load the warm row store");
        let engine = Engine::builder(&pnx).row_store(store).build();
        for result in engine.run_batch(&figure_batch) {
            std::hint::black_box(result.expect("every figure request is feasible"));
        }
    }));
    let _ = std::fs::remove_file(&rows_path);

    // --- Frame parse: an ~8 KB inline Optimize frame ---------------------
    // The request frame a client sends for an inline SOC, built from the
    // PNX stand-in's modules until the line is ~8 KB. The parse is
    // asserted to give back the frame before timing.
    let inline_frame = {
        let mut inline = Soc::new("pnx8550_inline");
        let mut line = String::new();
        let mut frame = None;
        for module in pnx.modules() {
            if line.len() >= 8 * 1024 {
                break;
            }
            inline.push_module(module.clone());
            let next = ClientFrame::Optimize(OptimizeFrame {
                request_id: "inline".to_string(),
                soc: SocSpec::Inline(write_soc(&inline)),
                request: OptimizeRequest::new(pnx_config),
                deadline_ms: None,
                stats: false,
            });
            line = serde_json::to_string(&next).expect("client frames serialise");
            frame = Some(next);
        }
        assert_eq!(
            parse_client_frame(&line).as_ref(),
            Ok(frame.as_ref().expect("the PNX stand-in has modules")),
            "the inline frame did not parse back to itself"
        );
        line
    };
    measurements.push(measure("protocol/parse_inline_frame", || {
        parse_client_frame(&inline_frame).expect("the inline frame parses")
    }));

    // --- solutions.v1 load: a full 256-entry cache file ------------------
    // 256 distinct d695 requests (one per channel count) fill a cache to
    // its default entry cap, which is saved as `--cache-dir` would. Before
    // timing, a reload is asserted to merge every entry and to answer
    // every request as a Hit identical to the computed response.
    let solutions_path =
        std::env::temp_dir().join(format!("soctest-perf-solutions-{}.v1", std::process::id()));
    let solution_requests: Vec<OptimizeRequest> = (0..256)
        .map(|i| {
            let mut config = d695_config;
            config.test_cell.ate = config.test_cell.ate.with_channels(128 + 2 * i);
            OptimizeRequest::new(config)
        })
        .collect();
    {
        let engine = Engine::new(&d695_soc);
        let token = CancelToken::new();
        let full = SolutionCache::new(256, 64 * 1024 * 1024);
        let computed: Vec<_> = solution_requests
            .iter()
            .map(|request| {
                full.run_coalesced(0, request, &token, || engine.run(request))
                    .expect("every d695 channel count is feasible")
                    .1
            })
            .collect();
        full.save(&solutions_path).expect("save the solution cache");
        let reloaded = SolutionCache::new(256, 64 * 1024 * 1024);
        assert_eq!(
            reloaded
                .load(&solutions_path)
                .expect("load the solution cache"),
            256,
            "the reload must merge every saved entry"
        );
        for (request, response) in solution_requests.iter().zip(&computed) {
            let (outcome, served) = reloaded
                .run_coalesced(0, request, &token, || {
                    panic!("a reloaded cache must not recompute")
                })
                .expect("a reloaded entry cannot fail");
            assert_eq!(outcome, CacheOutcome::Hit);
            assert_eq!(&served, response, "a reloaded response diverged");
        }
    }
    measurements.push(measure("cache/load_solutions", || {
        let cache = SolutionCache::new(256, 64 * 1024 * 1024);
        cache
            .load(&solutions_path)
            .expect("load the solution cache")
    }));
    let _ = std::fs::remove_file(&solutions_path);

    // --- Service frames on a warm named session -----------------------------
    // Whole frames through an in-process server (`Server::serve` over an
    // in-memory stream) on a warm pnx8550_like session. `named_miss` sends
    // FRAMES distinct plain requests per iteration (a fresh depth each, so
    // every one is a cache miss), `named_hit` FRAMES identical ones (every
    // one a hit); each records the per-frame mean. Before timing, every
    // reply is asserted equal to the `Result` line a fresh engine's answer
    // renders to.
    const FRAMES: usize = 32;
    let named_input = |first: usize, distinct: bool| -> String {
        (first..first + FRAMES)
            .map(|index| {
                let mut config = pnx_config;
                let step = if distinct { index as u64 } else { 0 };
                config.test_cell.ate = config
                    .test_cell
                    .ate
                    .with_depth(pnx_config.test_cell.ate.vector_memory_depth + 4096 * step);
                let line = serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
                    request_id: format!("r{index}"),
                    soc: SocSpec::Named("pnx8550_like".to_string()),
                    request: OptimizeRequest::new(config),
                    deadline_ms: None,
                    stats: false,
                }))
                .expect("client frames serialise");
                format!("{line}\n")
            })
            .collect()
    };
    let named_server = Server::new(ServerConfig::default());
    {
        let fresh = Engine::new(&pnx);
        // The first batch warms the session and computes; the second
        // repeats the first frame's request and hits.
        for (input, cached) in [(named_input(0, true), false), (named_input(0, false), true)] {
            let transcript = Transcript::default();
            named_server
                .serve(input.as_bytes(), transcript.clone())
                .expect("serve the named frames");
            let text = String::from_utf8(transcript.0.lock().unwrap().clone())
                .expect("transcripts are UTF-8");
            let replies: Vec<&str> = text.lines().collect();
            assert_eq!(replies.len(), FRAMES + 1, "one reply per frame, then Bye");
            for (line, reply) in input.lines().zip(&replies) {
                let Ok(ClientFrame::Optimize(frame)) = parse_client_frame(line) else {
                    unreachable!("built as an Optimize frame above")
                };
                let expected = render_server_frame(&ServerFrame::Result(ResultFrame {
                    // Only the first frame of the first batch builds the
                    // session; the repeats hit it.
                    warm: cached || frame.request_id != "r0",
                    request_id: frame.request_id,
                    cached,
                    response: fresh
                        .run(&frame.request)
                        .expect("the PNX stand-in fits every depth"),
                    stats: None,
                }));
                assert_eq!(
                    *reply, expected,
                    "a served frame diverged from a fresh engine"
                );
            }
        }
    }
    let per_frame = |measurement: Measurement| {
        let mean_seconds = measurement.mean_seconds / FRAMES as f64;
        println!("{:<45} {mean_seconds:>12.6} s/frame", measurement.name);
        Measurement {
            mean_seconds,
            ..measurement
        }
    };
    // One fresh batch per call (the warm-up and every iteration), built
    // before timing.
    let miss_inputs: Vec<String> = (1..=1 + MAX_ITERATIONS as usize)
        .map(|batch| named_input(batch * FRAMES, true))
        .collect();
    let mut next_miss = 0;
    measurements.push(per_frame(measure(
        "service/named_miss/pnx8550_like",
        || {
            let input = &miss_inputs[next_miss];
            next_miss += 1;
            named_server
                .serve(input.as_bytes(), std::io::sink())
                .expect("serve the named frames")
        },
    )));
    let hit_input = named_input(0, false);
    measurements.push(per_frame(measure("service/named_hit/pnx8550_like", || {
        named_server
            .serve(hit_input.as_bytes(), std::io::sink())
            .expect("serve the named frames")
    })));

    // --- Socket transport: four concurrent connections vs one -------------
    // Two long-lived servers on real Unix sockets (started once, outside
    // the timed region, the way a deployed server runs): one with a single
    // executor, one with four. Every iteration is a fresh *wave* of 32
    // distinct d695-sized optimizations — each wave renames the SOC, so no
    // wave is ever answered from a warm session or the solution cache and
    // no warm/cached flag depends on execution order. The single mode
    // pipes a wave through one connection; the concurrent mode splits it
    // over four connections racing into the shared admission queue, so the
    // comparison isolates what the transport adds: parallel frame parsing
    // in the per-connection readers, parallel session setup and compute on
    // the executors, parallel response rendering under the per-connection
    // writer locks. Before timing, wave 0 runs once through each server
    // and every per-request response line is asserted bit-identical.
    let wave_count = 2 + 2 * MAX_ITERATIONS as usize; // identity + warm-up + iterations, per mode
    let waves: Vec<Vec<Vec<String>>> = (0..wave_count)
        .map(|wave| {
            (0..4)
                .map(|conn| {
                    (0..8)
                        .map(|slot| {
                            let index = wave * 32 + conn * 8 + slot;
                            let mut variant = Soc::new(format!("d695_v{index}"));
                            for module in d695_soc.modules() {
                                variant.push_module(module.clone());
                            }
                            serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
                                request_id: format!("r{index}"),
                                soc: SocSpec::Inline(write_soc(&variant)),
                                request: OptimizeRequest::new(d695_config),
                                deadline_ms: None,
                                stats: false,
                            }))
                            .expect("client frames serialise")
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let temp = std::env::temp_dir();
    let single_addr =
        ListenAddr::Unix(temp.join(format!("soctest-perf-x1-{}.sock", std::process::id())));
    let multi_addr =
        ListenAddr::Unix(temp.join(format!("soctest-perf-x4-{}.sock", std::process::id())));
    let mut single_config = ServerConfig::default();
    single_config.executors = 1;
    let single_server = Server::new(single_config);
    let mut multi_config = ServerConfig::default();
    multi_config.executors = 4;
    let multi_server = Server::new(multi_config);
    let single_listener = BoundListener::bind(&single_addr).expect("bind bench socket");
    let multi_listener = BoundListener::bind(&multi_addr).expect("bind bench socket");
    let stop = AtomicBool::new(false);
    let (socket_single, socket_concurrent) = std::thread::scope(|scope| {
        let serving_single = scope.spawn(|| {
            single_listener
                .serve(&single_server, &TransportConfig::default(), &stop)
                .expect("serve bench socket")
        });
        let serving_multi = scope.spawn(|| {
            multi_listener
                .serve(&multi_server, &TransportConfig::default(), &stop)
                .expect("serve bench socket")
        });
        let run_wave = |addr: &ListenAddr, sessions: &[Vec<String>]| -> BTreeMap<String, String> {
            let responses = Mutex::new(BTreeMap::new());
            std::thread::scope(|clients| {
                let responses = &responses;
                for lines in sessions {
                    clients.spawn(move || {
                        let stream = ClientStream::connect(addr).expect("connect");
                        let mut uplink = stream.try_clone().expect("clone connection");
                        for line in lines {
                            writeln!(uplink, "{line}").expect("send request");
                        }
                        uplink.flush().expect("flush requests");
                        uplink.shutdown_write();
                        for line in BufReader::new(stream).lines() {
                            let line = line.expect("read response");
                            match serde_json::from_str::<ServerFrame>(&line)
                                .expect("server frame parses")
                            {
                                ServerFrame::Result(result) => {
                                    responses.lock().unwrap().insert(result.request_id, line);
                                }
                                ServerFrame::Error(error) => {
                                    panic!("bench request failed: {}", error.message)
                                }
                                ServerFrame::Bye(_) => {}
                            }
                        }
                    });
                }
            });
            responses.into_inner().expect("no client panicked")
        };
        // Bit-identity across modes before timing: the same wave through
        // both servers must answer identical per-request lines.
        let single_check = run_wave(&single_addr, &[waves[0].concat()]);
        let multi_check = run_wave(&multi_addr, &waves[0]);
        assert_eq!(single_check.len(), 32, "every request answered");
        assert_eq!(
            single_check, multi_check,
            "concurrent connections diverged from the single-connection replay"
        );
        // Each server sees each wave exactly once, so every timed request
        // is a cold session and a cold cache entry.
        let mut single_next = 1;
        let single = measure("service/single_connection", || {
            let wave = &waves[single_next];
            single_next += 1;
            run_wave(&single_addr, &[wave.concat()])
        });
        let mut multi_next = 1;
        let concurrent = measure("service/concurrent_connections", || {
            let wave = &waves[multi_next];
            multi_next += 1;
            run_wave(&multi_addr, wave)
        });
        stop.store(true, Ordering::SeqCst);
        serving_single.join().expect("listener thread");
        serving_multi.join().expect("listener thread");
        (single, concurrent)
    });
    let socket_speedup = socket_single.mean_seconds / socket_concurrent.mean_seconds;
    println!(
        "\nsocket transport: {socket_speedup:.1}x four connections / four executors \
         over one / one (informational)\n"
    );
    measurements.push(socket_single);
    measurements.push(socket_concurrent);

    let report = BenchReport {
        schema: "soctest-perf-baseline/v1".to_string(),
        threads: rayon::current_num_threads(),
        timetable_build: TimeTableComparison {
            soc: pnx.name().to_string(),
            modules: pnx.num_modules(),
            max_width,
            fast_mean_seconds: fast.mean_seconds,
            naive_mean_seconds: naive.mean_seconds,
            speedup,
            tables_identical,
        },
        lazy_timetable: lazy_stats,
        measurements,
    };
    let lazy_ratio = report.lazy_timetable.ratio;
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(REPORT_PATH, format!("{json}\n")).expect("write BENCH_optimizer.json");
    println!("wrote {REPORT_PATH}");

    assert!(
        tables_identical,
        "fast and naive TimeTable builds disagree — the row kernel is wrong"
    );
    assert!(
        lazy_ratio < 1.0,
        "the lazy table materialised the whole width grid — laziness lost"
    );
    assert!(
        cache_speedup >= 5.0,
        "solution-cache hits are only {cache_speedup:.1}x faster than cold \
         computation — below the 5x floor"
    );
    if speedup < 10.0 {
        eprintln!("WARNING: timetable_build speedup {speedup:.1}x is below the 10x target");
        std::process::exit(2);
    }
}
