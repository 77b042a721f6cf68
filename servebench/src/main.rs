//! `servebench` — the benchmark of record for `soc-serve`.
//!
//! ```text
//! servebench --workload hit_replay|sweep_fresh|inline_cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (see `servebench/README.md`). It builds
//! `soc-serve` from the same checkout, drives real `soc-serve --listen`
//! processes over Unix sockets from two closed-loop client connections,
//! checks every reply against a fresh in-process engine, and prints the
//! run record and, as its last line, one JSON result: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of an in-process
//! traced replay with `--trace 1`.

mod calm;
mod gate;
mod replay;
mod serve;
mod workload;

use crate::calm::{calm_stats, WINDOW};
use crate::gate::{check_kept, wire_id, Digester};
use crate::serve::{drive, steal_ticks, Conn, Draw, ServerProc, Stop, SERVER_FLAGS};
use crate::workload::{Generator, Req, WORKLOADS};
use soctest_multisite::service::{ServerConfig, ServerStats};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const USAGE: &str =
    "usage: servebench --workload hit_replay|sweep_fresh|inline_cold --seed N --seconds S --trace 0|1";

/// Server starts per run, the last being the benchmarked server, as
/// `(calm starts wanted, most starts)`. A start is calm when the steal
/// counter did not move from [`STEAL_MARGIN`] before it until its
/// `listening on` line; `setup_s` is the median over the calm starts,
/// or over all of them when fewer than wanted were calm.
const STARTS: (usize, usize) = (41, 201);
const STEAL_MARGIN: Duration = Duration::from_millis(20);

/// The timed phase runs past `--seconds` until this many calm replies
/// have arrived, enough for three latency windows, but no longer than
/// [`TIMED_CAP`] times `--seconds`.
const MIN_TIMED_REPLIES: usize = 3 * WINDOW;
const TIMED_CAP: u32 = 2;

/// `server_rss_mib` is the server's `VmHWM` once this many timed
/// replies have arrived: a fixed amount of work, so runs that serve
/// more requests in their seconds are not charged for memory that
/// grows with the request count (the row store does under
/// `inline_cold`). The record also carries the `VmHWM` read just
/// before SIGTERM.
const RSS_MARK: usize = MIN_TIMED_REPLIES;

/// The seed a claimed gain must also hold on, besides the seeds it was
/// developed with.
const HELD_OUT_SEED: u64 = 20_050_307;

/// `hit_replay` passes when at least this share of timed requests are
/// solution-cache hits.
const MIN_HIT_SHARE: f64 = 0.99;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|name| *name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.record);
            println!("{}", result.line);
            if result.correct {
                ExitCode::SUCCESS
            } else {
                for failure in &result.failures {
                    eprintln!("servebench: check failed: {failure}");
                }
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("servebench: {message}");
            ExitCode::FAILURE
        }
    }
}

struct RunResult {
    record: String,
    line: String,
    correct: bool,
    failures: Vec<String>,
}

/// Builds `soc-serve` from the checkout at `root` and returns its path.
fn build_server(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "soctest-experiments", "--bin", "soc-serve"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|err| format!("cannot run cargo: {err}"))?;
    if !status.success() {
        return Err(format!("building soc-serve failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join("target"), |dir| root.join(dir));
    let binary = target.join("release").join("soc-serve");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("no soc-serve at {}", binary.display()))
    }
}

/// The benchmarked server and its measured start.
struct Started {
    server: ServerProc,
    socket: PathBuf,
    setup_s: f64,
    starts: usize,
    calm_starts: usize,
}

/// Times throwaway starts, then keeps the last start as the server the
/// run drives (see [`STARTS`]).
fn start_servers(binary: &Path, work: &Path) -> Result<Started, String> {
    let (wanted, most) = STARTS;
    let mut all = Vec::new();
    let mut calm = Vec::new();
    for attempt in 1..=most {
        let socket = work.join(format!("s{attempt}.sock"));
        let steal_before = steal_ticks();
        std::thread::sleep(STEAL_MARGIN);
        let (mut server, ready) =
            ServerProc::start(binary, &socket).map_err(|err| format!("start soc-serve: {err}"))?;
        all.push(ready.as_secs_f64());
        if steal_ticks() == steal_before {
            calm.push(ready.as_secs_f64());
        }
        if calm.len() == wanted || attempt == most {
            let calm_starts = calm.len();
            let setup_s = median(if calm_starts == wanted { &calm } else { &all });
            return Ok(Started {
                server,
                socket,
                setup_s,
                starts: all.len(),
                calm_starts,
            });
        }
        server
            .stop()
            .map_err(|err| format!("stop soc-serve: {err}"))?;
    }
    unreachable!("the last attempt returns")
}

fn run(args: &Args) -> Result<RunResult, String> {
    let root = std::env::current_dir().map_err(|err| err.to_string())?;
    let binary = build_server(&root)?;
    // Relative to the root, which is every process's working directory:
    // Unix socket paths must stay short.
    let work = Path::new(".bench_out").join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|err| err.to_string())?;
    let result = measure(args, &binary, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure(args: &Args, binary: &Path, work: &Path) -> Result<RunResult, String> {
    let mut generator = Generator::new(args.workload, args.seed).expect("parsed workload");
    let warm = generator.warm_pass();
    let warm_len = warm.len();
    let mut failures = Vec::new();
    let digester = Digester::new();

    let Started {
        mut server,
        socket,
        setup_s,
        starts,
        calm_starts,
    } = start_servers(binary, work)?;
    let connect = || Conn::connect(&socket).map_err(|err| format!("connect: {err}"));
    let mut conns = vec![connect()?, connect()?];

    let position = AtomicUsize::new(0);
    let next_warm = || {
        let index = position.fetch_add(1, Ordering::SeqCst);
        draw(index, warm_len, &warm[index])
    };
    let mut warm_outcomes = drive(
        &mut conns,
        &next_warm,
        &digester,
        &|_| {},
        Stop::Count(warm_len),
    )
    .outcomes;

    let source = Mutex::new((generator, warm_len));
    let next_timed = || {
        let (drawn, index) = {
            let mut state = source.lock().expect("no client panicked");
            let index = state.1;
            state.1 += 1;
            (state.0.next_req(), index)
        };
        draw(index, warm_len, &drawn)
    };
    let seconds = Duration::from_secs(args.seconds);
    let rss_at_mark = Mutex::new(None);
    let mark = |replies: usize| {
        if replies == RSS_MARK {
            *rss_at_mark.lock().expect("no client panicked") = Some(server.peak_rss_mib());
        }
    };
    let timed = drive(
        &mut conns,
        &next_timed,
        &digester,
        &mark,
        Stop::Timed {
            seconds,
            min_calm: MIN_TIMED_REPLIES,
            cap: seconds * TIMED_CAP,
        },
    );
    let mut timed_outcomes = timed.outcomes;

    let mut byes = Vec::new();
    for conn in conns {
        byes.push(conn.close().map_err(|err| format!("close: {err}"))?);
    }
    let rss_end_mib = server
        .peak_rss_mib()
        .map_err(|err| format!("read VmHWM: {err}"))?;
    server
        .stop()
        .map_err(|err| format!("stop soc-serve: {err}"))?;
    let rss_mib = rss_at_mark
        .into_inner()
        .expect("no client panicked")
        .ok_or("the timed phase ended before the memory mark")?
        .map_err(|err| format!("read VmHWM: {err}"))?;

    check_kept(args.workload, args.seed, &digester, &mut warm_outcomes);
    check_kept(args.workload, args.seed, &digester, &mut timed_outcomes);
    if let Some(bad) = warm_outcomes
        .iter()
        .find(|o| o.flags.is_none() || o.mismatch)
    {
        failures.push(format!("warm-pass request {} failed or differs", bad.index));
    }

    // End-to-end metrics over the timed phase.
    let attempted = timed_outcomes.len();
    let failed = timed_outcomes
        .iter()
        .filter(|o| o.flags.is_none() || o.mismatch)
        .count();
    if failed != 0 {
        failures.push(format!(
            "{failed} of {attempted} timed requests failed or differ"
        ));
    }
    let calm = calm_stats(&timed_outcomes, &timed.steal);
    let mean_latency_us = timed_outcomes.iter().map(|o| o.latency_ns).sum::<u64>() as f64
        / 1e3
        / attempted.max(1) as f64;
    let end_to_end = vec![
        metric("throughput_rps", calm.throughput, "1/s"),
        metric("latency_p50_ms", calm.p50_ms, "ms"),
        metric("latency_p99_ms", calm.p99_ms, "ms"),
        metric(
            "success_share",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("setup_s", setup_s, "s"),
        metric("server_rss_mib", rss_mib, "MiB"),
    ];

    // Workload self-checks, from the reply flags and the `Bye` frames.
    let bye = merge_byes(&byes);
    let requests = warm_len + attempted;
    let timed_cached = timed_outcomes
        .iter()
        .filter(|o| matches!(o.flags, Some((_, true))))
        .count();
    let timed_warm = timed_outcomes
        .iter()
        .filter(|o| matches!(o.flags, Some((true, _))))
        .count();
    let hit_share = timed_cached as f64 / attempted.max(1) as f64;
    let lookups = bye.cache.result_hits + bye.cache.result_misses;
    let bye_hit_share = bye.cache.result_hits as f64 / lookups.max(1) as f64;
    // The solution cache holds at most this many whole results, so
    // every miss past it evicted one.
    let evictions_min = bye
        .cache
        .result_misses
        .saturating_sub(ServerConfig::default().max_result_entries as u64);
    match args.workload {
        "hit_replay" => {
            if hit_share < MIN_HIT_SHARE || bye_hit_share < MIN_HIT_SHARE {
                failures.push(format!(
                    "hit share {hit_share} (Bye {bye_hit_share}) below {MIN_HIT_SHARE}"
                ));
            }
        }
        "sweep_fresh" => {
            if bye.cache.result_hits != 0 || timed_cached != 0 {
                failures.push(format!(
                    "{} result hits, expected none",
                    bye.cache.result_hits
                ));
            }
            if evictions_min == 0 {
                failures.push("the solution cache never had to evict".into());
            }
        }
        _ => {
            if bye.session_misses != requests as u64 || timed_warm != 0 {
                failures.push(format!(
                    "{} registry misses for {requests} requests",
                    bye.session_misses
                ));
            }
        }
    }
    let checks = vec![
        metric("check.hit_share", hit_share, "ratio"),
        metric("check.requests", requests as f64, "count"),
        metric("check.result_hits", bye.cache.result_hits as f64, "count"),
        metric(
            "check.result_misses",
            bye.cache.result_misses as f64,
            "count",
        ),
        metric("check.cache_evictions_min", evictions_min as f64, "count"),
        metric("check.session_misses", bye.session_misses as f64, "count"),
        metric("check.session_evictions", bye.evictions as f64, "count"),
        metric(
            "check.store_cells_computed",
            bye.cache.cells_computed as f64,
            "count",
        ),
    ];

    let mut per_layer = checks.clone();
    let mut replay_note = String::new();
    if args.trace {
        let replayed = attempted.min(replay::REPLAY_TIMED);
        let mut generator = Generator::new(args.workload, args.seed).expect("parsed workload");
        let warm_again = generator.warm_pass();
        let timed_again: Vec<Req> = (0..replayed).map(|_| generator.next_req()).collect();
        let report = replay::run(&warm_again, &timed_again, mean_latency_us)?;
        failures.extend(report.failures.iter().cloned());
        match args.workload {
            "sweep_fresh" if report.points_reused == 0 => {
                failures.push("the point memo answered no sweep point".into())
            }
            "inline_cold" if report.cells_from_store == 0 => {
                failures.push("the row store served no cells".into())
            }
            _ => {}
        }
        per_layer.extend(report.metrics);
        per_layer.push(metric(
            "check.points_reused",
            report.points_reused as f64,
            "count",
        ));
        per_layer.push(metric(
            "check.store_cells_served",
            report.cells_from_store as f64,
            "count",
        ));
        let spans_path =
            Path::new(".bench_out").join(format!("spans-{}-{}.ndjson", args.workload, args.seed));
        std::fs::write(&spans_path, &report.spans).map_err(|err| err.to_string())?;
        let _ = write!(
            replay_note,
            ",\"replay\":{{\"requests\":{},\"kernel_probes\":{},\"spans\":{}}}",
            report.requests,
            report.probes,
            json_string(&spans_path.display().to_string())
        );
    }

    let correct = failures.is_empty();
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(if args.trace { &per_layer } else { &end_to_end })
    );
    let record = format!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\"trace\":{},\
         \"seconds\":{},\"nproc\":{},\"commit\":{},\"rustc\":{},\"server_flags\":{},\
         \"timed_s\":{},\"samples\":{{\"timed_replies\":{attempted},\"calm_replies\":{},\"latency_windows\":{},\
         \"window_replies\":{WINDOW},\"beyond_p99_per_window\":{},\"setup_starts\":{starts},\"calm_setup_starts\":{calm_starts},\
         \"server_rss\":1}},\
         \"steal\":{{\"ticks_per_s\":{},\"calm_time_share\":{},\"latency_over_all_replies\":{}}},\
         \"server_rss_end_mib\":{},\"end_to_end\":{},\"self_checks\":{}{replay_note},\
         \"failures\":[{}]}}}}",
        json_string(args.workload),
        args.seed,
        args.trace,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_string(&commit()),
        json_string(&rustc_version()),
        json_string(&SERVER_FLAGS.join(" ")),
        finite(calm.seconds),
        calm.calm_replies,
        calm.windows,
        WINDOW - WINDOW * 99 / 100,
        finite(calm.steal_ticks_per_s),
        finite(calm.calm_time_share),
        calm.all_replies,
        finite(rss_end_mib),
        metrics_json(&end_to_end),
        metrics_json(&checks),
        failures
            .iter()
            .map(|f| json_string(f))
            .collect::<Vec<_>>()
            .join(","),
    );
    let record_path = Path::new(".bench_out").join(format!(
        "record-{}-{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record_path, format!("{record}\n")).map_err(|err| err.to_string())?;
    Ok(RunResult {
        record,
        line,
        correct,
        failures,
    })
}

/// Renders request `index` of the run for the wire.
fn draw(index: usize, warm_len: usize, req: &Req) -> Draw {
    let id = wire_id(index, warm_len);
    Draw {
        index,
        line: req.frame_line(&id),
        id,
    }
}

/// Server-wide `Bye` counters: each connection's `Bye` snapshots them
/// when it drains, so the later snapshot holds the larger values.
fn merge_byes(byes: &[ServerStats]) -> ServerStats {
    let mut merged = byes[0];
    for bye in &byes[1..] {
        merged.session_misses = merged.session_misses.max(bye.session_misses);
        merged.session_hits = merged.session_hits.max(bye.session_hits);
        merged.evictions = merged.evictions.max(bye.evictions);
        merged.cache.result_hits = merged.cache.result_hits.max(bye.cache.result_hits);
        merged.cache.result_misses = merged.cache.result_misses.max(bye.cache.result_misses);
        merged.cache.cells_computed = merged.cache.cells_computed.max(bye.cache.cells_computed);
    }
    merged
}

/// The median; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// A reported metric: name, value and unit.
pub type Metric = (String, f64, &'static str);

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                finite(*value),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A JSON number for `value`, with every digit Rust's shortest
/// round-trip rendering gives.
fn finite(value: f64) -> String {
    if value.is_finite() {
        let text = format!("{value}");
        if text.contains(['.', 'e']) {
            text
        } else {
            format!("{text}.0")
        }
    } else {
        "null".to_string()
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The checked-out commit, or `unknown` outside a git repository.
fn commit() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())
}
