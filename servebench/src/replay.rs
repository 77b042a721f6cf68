//! The traced run: the requests of the socket run replayed in-process,
//! in order, through the public function of every layer in the order
//! `Server::execute` calls them, with a span around each call. The
//! kernel probes then re-time the computed plain requests through the
//! wrapper, tam and optimizer entry points.

use crate::gate::{expected_line, fresh_answer, wire_id};
use crate::workload::Req;
use crate::{metric, Metric};
use soctest_multisite::engine::{OptimizeResponse, RequestTrace, SweepAxis};
use soctest_multisite::optimizer::optimize_with_table;
use soctest_multisite::problem::OptimizerConfig;
use soctest_multisite::service::{
    canonical_request, parse_client_frame, render_server_frame, resolve_named_soc, CacheOutcome,
    CancelToken, ClientFrame, ResultFrame, ServerConfig, ServerFrame, SessionRegistry, SocSpec,
    SolutionCache,
};
use soctest_soc_model::parser::parse_soc;
use soctest_soc_model::Soc;
use soctest_tam::step1::design_with_table;
use soctest_tam::{max_tam_width, RowStore, TimeTable};
use soctest_wrapper::RowKernel;
use std::cell::Cell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed requests replayed after the warm pass (fewer when the socket
/// run sent fewer).
pub const REPLAY_TIMED: usize = 512;

/// Computed plain requests re-timed by the kernel probes.
const KERNEL_PROBES: usize = 16;

/// A request's layer self times must add up to its replay total within
/// this share of the total plus [`ACCOUNTING_SLACK_NS`]; the check
/// passes when at least [`ACCOUNTED_REQUESTS`] of the timed requests
/// meet it (a preemption that lands between two spans is charged to no
/// layer).
const ACCOUNTING_TOLERANCE: f64 = 0.05;
const ACCOUNTING_SLACK_NS: u64 = 5_000;
const ACCOUNTED_REQUESTS: f64 = 0.99;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    request: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory and written out when the run ends. A disabled
/// tracer records nothing, which is the untraced replay.
struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(&mut self, name: &'static str, request: usize) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span and returns its duration (0 when
    /// disabled).
    fn end(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("end matches a begin");
        self.spans[index].end_ns = end_ns;
        self.spans[index].duration()
    }

    /// The spans as NDJSON: name, start, end, parent and request.
    fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.request, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// The server's shared state, built the way `Server::new` builds it
/// from the default configuration.
struct Stack {
    registry: SessionRegistry,
    solutions: Arc<SolutionCache>,
}

impl Stack {
    fn new() -> Stack {
        let config = ServerConfig::default();
        let row_store = Arc::new(RowStore::new());
        let solutions = Arc::new(SolutionCache::new(
            config.max_result_entries,
            config.max_result_bytes,
        ));
        let registry =
            SessionRegistry::with_row_store(config.max_sessions, config.max_table_bytes, row_store)
                .with_solution_cache(Arc::clone(&solutions));
        Stack {
            registry,
            solutions,
        }
    }
}

/// What serving one request in-process produced.
struct Served {
    total_ns: u64,
    registry_hit: bool,
    outcome: CacheOutcome,
    trace: Option<RequestTrace>,
    line: String,
    bytes_in: usize,
    /// The SOC and request of a computed plain request, for the kernel
    /// probes.
    probe: Option<(Soc, OptimizerConfig, OptimizeResponse)>,
}

/// Serves one frame line through the layers, recording a span per
/// layer call when the tracer is enabled.
fn serve_one(
    stack: &Stack,
    tracer: &mut Tracer,
    index: usize,
    line: &str,
) -> Result<Served, String> {
    let started = Instant::now();
    tracer.begin("request", index);

    tracer.begin("protocol.parse", index);
    let parsed = parse_client_frame(line);
    tracer.end();
    let ClientFrame::Optimize(frame) = parsed? else {
        return Err("the replay sends Optimize frames only".to_string());
    };

    tracer.begin("soc-model.resolve", index);
    let soc = match &frame.soc {
        SocSpec::Named(name) => resolve_named_soc(name),
        SocSpec::Inline(text) => parse_soc(text).map_err(|err| err.to_string()),
    };
    tracer.end();
    let soc = soc?;

    tracer.begin("registry.get_or_build", index);
    let handle = stack.registry.get_or_build(&soc);
    tracer.end();
    let handle = handle.map_err(|err| err.to_string())?;

    tracer.begin("cache.key", index);
    black_box(canonical_request(black_box(&frame.request)));
    tracer.end();

    let token = CancelToken::new();
    let traced = tracer.enabled;
    let trace_slot = Cell::new(None);
    tracer.begin("cache.run_coalesced", index);
    let served = stack
        .solutions
        .run_coalesced(handle.key, &frame.request, &token, || {
            tracer.begin("engine.run", index);
            let served = if traced {
                let (served, trace) = handle.engine.run_with_cancel_traced(&frame.request, &token);
                trace_slot.set(Some(trace));
                served
            } else {
                handle.engine.run_with_cancel(&frame.request, &token)
            };
            tracer.end();
            tracer.begin("registry.reassess", index);
            stack.registry.reassess(handle.key, &handle.canonical);
            tracer.end();
            served
        });
    tracer.end();
    let (outcome, response) = served.map_err(|err| err.to_string())?;

    tracer.begin("protocol.render", index);
    let result = ServerFrame::Result(ResultFrame {
        request_id: frame.request_id,
        warm: handle.warm,
        cached: outcome.is_cached(),
        response,
        stats: None,
    });
    let line_out = render_server_frame(&result);
    tracer.end();
    tracer.end();
    let total_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let ServerFrame::Result(ResultFrame { response, .. }) = result else {
        unreachable!("built as a Result above")
    };
    let probe = (outcome == CacheOutcome::Computed
        && matches!(frame.request.sweep, SweepAxis::None))
    .then_some((soc, frame.request.config, response));
    Ok(Served {
        total_ns,
        registry_hit: handle.warm,
        outcome,
        trace: trace_slot.take(),
        line: line_out,
        bytes_in: line.len(),
        probe,
    })
}

/// Per-layer results of the traced run, as `(name, value, unit)`.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub spans: String,
    /// Failed checks; empty when the replay is consistent.
    pub failures: Vec<String>,
    pub points_reused: u64,
    pub cells_from_store: u64,
    pub requests: usize,
    pub probes: usize,
}

/// Replays `warm` and then `timed` (untraced first, for the overhead,
/// then traced on fresh state), checks every traced reply against a
/// fresh engine and runs the kernel probes. `untraced_mean_us` is the
/// socket run's mean latency.
pub fn run(warm: &[Req], timed: &[Req], untraced_mean_us: f64) -> Result<Report, String> {
    let lines: Vec<(usize, String)> = warm
        .iter()
        .chain(timed)
        .enumerate()
        .map(|(index, req)| (index, req.frame_line(&wire_id(index, warm.len()))))
        .collect();
    let replay = |tracer: &mut Tracer| -> Result<(Vec<Served>, [Snapshot; 2]), String> {
        let stack = Stack::new();
        let mut served = Vec::with_capacity(lines.len());
        let mut before = Snapshot::of(&stack);
        for (index, line) in &lines {
            if *index == warm.len() {
                before = Snapshot::of(&stack);
            }
            served.push(serve_one(&stack, tracer, *index, line)?);
        }
        Ok((served, [before, Snapshot::of(&stack)]))
    };
    let (plain_runs, _) = replay(&mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let (served, [before, after]) = replay(&mut tracer)?;

    let mut failures = Vec::new();
    for ((index, _), (served, req)) in lines
        .iter()
        .zip(served.iter().zip(warm.iter().chain(timed)))
    {
        let id = wire_id(*index, warm.len());
        let cached = served.outcome.is_cached();
        match fresh_answer(req) {
            Ok(expected)
                if expected_line(&id, served.registry_hit, cached, &expected) == served.line => {}
            _ => failures.push(format!("replayed {id} differs from a fresh engine")),
        }
    }

    let timed_served = &served[warm.len()..];
    let n = timed_served.len().max(1) as f64;
    let mut metrics = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| metrics.push(metric(name, value, unit));

    // Self time per span: its duration minus its direct children's.
    let mut self_ns = vec![0u64; tracer.spans.len()];
    for (index, span) in tracer.spans.iter().enumerate() {
        self_ns[index] += span.duration();
        if let Some(parent) = span.parent {
            self_ns[parent] = self_ns[parent].saturating_sub(span.duration());
        }
    }
    let layer_us = |name: &str, filter: &dyn Fn(&Span) -> bool| -> f64 {
        let total: u64 = tracer
            .spans
            .iter()
            .zip(&self_ns)
            .filter(|(span, _)| span.request >= warm.len() && span.name == name && filter(span))
            .map(|(_, ns)| *ns)
            .sum();
        total as f64 / 1e3 / n
    };
    let all = |_: &Span| true;
    let hit = |span: &Span| served[span.request].registry_hit;
    let miss = |span: &Span| !served[span.request].registry_hit;
    push("protocol.parse_us", layer_us("protocol.parse", &all), "us");
    push(
        "protocol.render_us",
        layer_us("protocol.render", &all),
        "us",
    );
    push(
        "protocol.bytes_in",
        timed_served.iter().map(|s| s.bytes_in).sum::<usize>() as f64 / n,
        "bytes",
    );
    push(
        "protocol.bytes_out",
        timed_served.iter().map(|s| s.line.len() + 1).sum::<usize>() as f64 / n,
        "bytes",
    );
    push(
        "soc-model.resolve_us",
        layer_us("soc-model.resolve", &all),
        "us",
    );
    push(
        "registry.lookup_us",
        layer_us("registry.get_or_build", &hit),
        "us",
    );
    push(
        "registry.build_us",
        layer_us("registry.get_or_build", &miss),
        "us",
    );
    push(
        "registry.reassess_us",
        layer_us("registry.reassess", &all),
        "us",
    );
    let registry_lookups = (after.registry_hits + after.registry_misses)
        .saturating_sub(before.registry_hits + before.registry_misses);
    push(
        "registry.hit_ratio",
        ratio(after.registry_hits - before.registry_hits, registry_lookups),
        "ratio",
    );
    push(
        "registry.evictions",
        (after.registry_evictions - before.registry_evictions) as f64 / n,
        "1/req",
    );
    push("cache.key_us", layer_us("cache.key", &all), "us");
    push(
        "cache.probe_us",
        layer_us("cache.run_coalesced", &all),
        "us",
    );
    let cache_hits = after.cache_hits - before.cache_hits;
    push(
        "cache.hit_ratio",
        ratio(
            cache_hits,
            cache_hits + after.cache_misses - before.cache_misses,
        ),
        "ratio",
    );
    push(
        "cache.evictions",
        (after.cache_evictions - before.cache_evictions) as f64 / n,
        "1/req",
    );
    let traces = timed_served
        .iter()
        .filter_map(|s| s.trace)
        .fold(RequestTrace::default(), |acc, trace| acc.merge(&trace));
    push(
        "cache.point_reuse_ratio",
        ratio(
            traces.points_reused,
            traces.points_reused + traces.points_computed,
        ),
        "ratio",
    );
    push("engine.run_us", layer_us("engine.run", &all), "us");
    push(
        "engine.cells_computed",
        traces.table.cells_computed as f64 / n,
        "cells/req",
    );
    push(
        "engine.cells_from_store",
        traces.table.cells_from_store as f64 / n,
        "cells/req",
    );
    push(
        "engine.store_hit_ratio",
        ratio(
            traces.table.cells_from_store,
            traces.table.cells_from_store + traces.table.cells_computed,
        ),
        "ratio",
    );
    push(
        "engine.cancel_probes",
        traces.cancel_probes as f64 / n,
        "1/req",
    );

    // Kernel probes on the computed plain requests.
    let candidates: Vec<(usize, &(Soc, OptimizerConfig, OptimizeResponse))> = timed_served
        .iter()
        .enumerate()
        .filter_map(|(position, s)| s.probe.as_ref().map(|probe| (warm.len() + position, probe)))
        .take(KERNEL_PROBES)
        .collect();
    let mut kernel_ns = [0u64; 4];
    for (request, (soc, config, response)) in &candidates {
        let request = *request;
        let channels = config.test_cell.ate.channels;
        let depth = config.test_cell.ate.vector_memory_depth;
        let width = max_tam_width(channels);
        tracer.begin("wrapper.row_kernel", request);
        let mut kernel = RowKernel::new();
        let mut row = Vec::new();
        for module in soc.modules() {
            kernel.compute_into(module, width, &mut row);
            black_box(&row);
        }
        kernel_ns[0] += tracer.end();
        tracer.begin("tam.table_build", request);
        let table = TimeTable::build(soc, width);
        kernel_ns[1] += tracer.end();
        tracer.begin("tam.step1", request);
        let step1 = black_box(design_with_table(&table, channels, depth));
        let step1_ns = tracer.end();
        kernel_ns[2] += step1_ns;
        tracer.begin("optimizer.optimize_with_table", request);
        let solution = optimize_with_table(soc.name(), &table, config);
        kernel_ns[3] += tracer.end().saturating_sub(step1_ns);
        let served = response.solution();
        if solution.as_ref().ok() != served
            || step1.ok().as_ref() != served.map(|s| &s.step1_architecture)
        {
            failures.push(format!(
                "kernel probe of {} differs from the served solution",
                wire_id(request, warm.len())
            ));
        }
    }
    let probes = candidates.len().max(1) as f64;
    for (name, ns) in [
        "wrapper.row_kernel_us",
        "tam.table_build_us",
        "tam.step1_us",
        "optimizer.step2_us",
    ]
    .into_iter()
    .zip(kernel_ns)
    {
        push(name, ns as f64 / 1e3 / probes, "us");
    }

    // Accounting: layer self times against each request's total.
    let mut within = 0usize;
    let mut accounted_ns = 0u64;
    let mut total_ns = 0u64;
    for (span, glue) in tracer.spans.iter().zip(&self_ns) {
        if span.name != "request" || span.request < warm.len() {
            continue;
        }
        let total = span.duration();
        total_ns += total;
        accounted_ns += total - glue;
        if (*glue as f64) <= total as f64 * ACCOUNTING_TOLERANCE + ACCOUNTING_SLACK_NS as f64 {
            within += 1;
        }
    }
    let within_share = within as f64 / n;
    if within_share < ACCOUNTED_REQUESTS {
        failures.push(format!(
            "layer self times account for only {within} of {} request totals",
            timed_served.len()
        ));
    }
    let traced_mean_us = timed_served.iter().map(|s| s.total_ns).sum::<u64>() as f64 / 1e3 / n;
    let plain_mean_us = plain_runs[warm.len()..]
        .iter()
        .map(|s| s.total_ns)
        .sum::<u64>() as f64
        / 1e3
        / n;
    push("replay.total_us", traced_mean_us, "us");
    push(
        "replay.accounted_share",
        ratio(accounted_ns, total_ns),
        "ratio",
    );
    push("replay.within_tolerance_share", within_share, "ratio");
    push("trace.overhead_us", traced_mean_us - plain_mean_us, "us");
    push(
        "transport.residual_us",
        untraced_mean_us - traced_mean_us,
        "us",
    );

    Ok(Report {
        metrics,
        spans: tracer.to_ndjson(),
        failures,
        points_reused: traces.points_reused,
        cells_from_store: traces.table.cells_from_store,
        requests: timed_served.len(),
        probes: candidates.len(),
    })
}

/// Registry and cache counters at one moment of the replay.
#[derive(Clone, Copy)]
struct Snapshot {
    registry_hits: u64,
    registry_misses: u64,
    registry_evictions: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

impl Snapshot {
    fn of(stack: &Stack) -> Snapshot {
        let registry = stack.registry.stats();
        let cache = stack.solutions.stats();
        Snapshot {
            registry_hits: registry.hits,
            registry_misses: registry.misses,
            registry_evictions: registry.evictions,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
