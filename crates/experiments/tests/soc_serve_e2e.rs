//! End-to-end tests of the `soc-serve` binary: a real subprocess, real
//! pipes, malformed input, injected faults, cancellation races, deadline
//! expiry, and registry eviction.
//!
//! Deterministic behaviour is byte-checked against the committed sample
//! transcript; wall-clock behaviour (cancellation, deadlines, overload)
//! is driven with generous injected delays and asserted structurally.

use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_experiments::serve::sample_session;
use soctest_multisite::service::{
    ClientFrame, ErrorKind, OptimizeFrame, ServerFrame, SocSpec, MAX_FRAME_BYTES,
};
use soctest_multisite::{OptimizeRequest, OptimizerConfig};
use std::io::Write;
use std::process::{Command, Stdio};

const SAMPLE_INPUT: &str = include_str!("../data/sample_session_input.ndjson");
const SAMPLE_TRANSCRIPT: &str = include_str!("../data/sample_session_transcript.ndjson");

/// Runs the server binary with `args`, feeds `input` on stdin, returns
/// the full stdout transcript.
fn run_server(args: &[&str], input: impl AsRef<[u8]>) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_soc-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn soc-serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_ref())
        .expect("write session input");
    let output = child.wait_with_output().expect("soc-serve exits");
    assert!(output.status.success(), "soc-serve failed");
    String::from_utf8(output.stdout).expect("transcript is UTF-8")
}

fn parse_transcript(transcript: &str) -> Vec<ServerFrame> {
    transcript
        .lines()
        .map(|line| serde_json::from_str::<ServerFrame>(line).expect("server frame parses"))
        .collect()
}

fn optimize_line(request_id: &str, soc: SocSpec, deadline_ms: Option<u64>) -> String {
    let cell = TestCell::new(
        AteSpec::new(256, 96 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    );
    serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
        request_id: request_id.to_string(),
        soc,
        request: OptimizeRequest::new(OptimizerConfig::new(cell)),
        deadline_ms,
        stats: false,
    }))
    .expect("client frames serialise")
}

fn d695_line(request_id: &str) -> String {
    optimize_line(request_id, SocSpec::Named("d695".to_string()), None)
}

#[test]
fn sample_session_matches_the_committed_transcript() {
    // The library's sample, the committed input, and the live binary's
    // transcript must all agree byte-for-byte.
    assert_eq!(sample_session(), SAMPLE_INPUT);
    let transcript = run_server(&[], SAMPLE_INPUT);
    assert_eq!(transcript, SAMPLE_TRANSCRIPT);
}

#[test]
fn eof_drains_like_shutdown() {
    let without_shutdown = SAMPLE_INPUT.replace("\"Shutdown\"\n", "");
    let transcript = run_server(&[], &without_shutdown);
    assert_eq!(transcript, SAMPLE_TRANSCRIPT);
}

#[test]
fn check_mode_detects_drift() {
    let status = Command::new(env!("CARGO_BIN_EXE_soc-serve"))
        .args(["--check", "data/sample_session_input.ndjson"]) // wrong golden
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .expect("piped stdin")
                .write_all(SAMPLE_INPUT.as_bytes())?;
            child.wait()
        })
        .expect("soc-serve --check runs");
    assert!(
        !status.success(),
        "--check must fail against the wrong golden"
    );
}

#[test]
fn mid_stream_panic_leaves_siblings_bit_identical() {
    let input = format!("{}\n{}\n", d695_line("r1"), d695_line("r2"));
    let fresh = run_server(&[], &input);
    let faulted = run_server(&["--faults", "respond:panic@r1"], &input);

    let fresh_lines: Vec<&str> = fresh.lines().collect();
    let faulted_lines: Vec<&str> = faulted.lines().collect();
    assert_eq!(fresh_lines.len(), 3);
    assert_eq!(faulted_lines.len(), 3);

    // r1: a Result in the fresh process, a typed Internal error in the
    // faulted one — and the server kept serving.
    assert!(matches!(
        parse_transcript(fresh_lines[0]).remove(0),
        ServerFrame::Result(result) if result.request_id == "r1"
    ));
    match parse_transcript(faulted_lines[0]).remove(0) {
        ServerFrame::Error(error) => {
            assert_eq!(error.request_id.as_deref(), Some("r1"));
            assert_eq!(error.kind, ErrorKind::Internal);
            assert!(
                error.message.contains("injected fault"),
                "{}",
                error.message
            );
        }
        other => panic!("expected Internal error for r1, got {other:?}"),
    }

    // r2's response line is bit-identical to a fresh process: the panic
    // fired after r1's session was built, so r2 is warm in both runs.
    assert_eq!(faulted_lines[1], fresh_lines[1]);
}

#[test]
fn deeply_nested_line_is_a_protocol_error_and_the_stream_goes_on() {
    // One line of 200,000 `[` used to overflow the reader's stack and
    // abort the process. It must cost only a typed error for that line.
    let input = format!("{}\n{}\n", "[".repeat(200_000), d695_line("r1"));
    let frames = parse_transcript(&run_server(&[], &input));
    assert_eq!(frames.len(), 3);
    match &frames[0] {
        ServerFrame::Error(error) => {
            assert_eq!(error.request_id, None);
            assert_eq!(error.kind, ErrorKind::Protocol);
            assert!(error.message.contains("nesting"), "{}", error.message);
        }
        other => panic!("expected a Protocol error, got {other:?}"),
    }
    assert!(matches!(&frames[1], ServerFrame::Result(r) if r.request_id == "r1"));
    match &frames[2] {
        ServerFrame::Bye(stats) => assert_eq!((stats.served, stats.errors), (1, 1)),
        other => panic!("expected Bye, got {other:?}"),
    }
}

/// Feeds `bad` as one line before a valid `r1` frame: the bad line must
/// answer exactly one stream-level `Protocol` error naming `why`, and
/// `r1` must still be served.
fn assert_bad_line_is_skipped(bad: &[u8], why: &str) {
    let mut input = bad.to_vec();
    input.push(b'\n');
    input.extend_from_slice(format!("{}\n", d695_line("r1")).as_bytes());
    let frames = parse_transcript(&run_server(&[], &input));
    assert_eq!(frames.len(), 3);
    match &frames[0] {
        ServerFrame::Error(error) => {
            assert_eq!(error.request_id, None);
            assert_eq!(error.kind, ErrorKind::Protocol);
            assert!(error.message.contains(why), "{}", error.message);
        }
        other => panic!("expected a Protocol error, got {other:?}"),
    }
    assert!(matches!(&frames[1], ServerFrame::Result(r) if r.request_id == "r1"));
    match &frames[2] {
        ServerFrame::Bye(stats) => assert_eq!((stats.served, stats.errors), (1, 1)),
        other => panic!("expected Bye, got {other:?}"),
    }
}

#[test]
fn invalid_utf8_line_is_a_protocol_error_and_the_stream_goes_on() {
    // A non-UTF-8 line used to end the session as if it were EOF,
    // silently dropping every later frame.
    assert_bad_line_is_skipped(b"\xff", "UTF-8");
}

#[test]
fn over_long_line_is_a_protocol_error_and_the_stream_goes_on() {
    // A valid frame padded with whitespace past the cap: the reader must
    // refuse it rather than buffer it, then serve the next frame.
    let padded = format!("{}{}", d695_line("r0"), " ".repeat(MAX_FRAME_BYTES));
    assert_bad_line_is_skipped(padded.as_bytes(), "longer than");
}

#[test]
fn cancel_race_answers_cancelled_without_disturbing_siblings() {
    // r1 is held for 400 ms by the injected delay; the Cancel lands while
    // it sleeps. r2 must still answer normally.
    let input = format!(
        "{}\n{{\"Cancel\":{{\"request_id\":\"r1\"}}}}\n{}\n",
        d695_line("r1"),
        d695_line("r2"),
    );
    let frames = parse_transcript(&run_server(&["--faults", "optimize:delay:400@r1"], &input));
    assert_eq!(frames.len(), 3);
    match &frames[0] {
        ServerFrame::Error(error) => {
            assert_eq!(error.request_id.as_deref(), Some("r1"));
            assert_eq!(error.kind, ErrorKind::Cancelled);
        }
        other => panic!("expected Cancelled for r1, got {other:?}"),
    }
    assert!(matches!(&frames[1], ServerFrame::Result(r) if r.request_id == "r2"));
    match &frames[2] {
        ServerFrame::Bye(stats) => assert_eq!((stats.served, stats.errors), (1, 1)),
        other => panic!("expected Bye, got {other:?}"),
    }
}

#[test]
fn expired_deadline_answers_deadline_exceeded() {
    let input = format!(
        "{}\n{}\n",
        optimize_line("r1", SocSpec::Named("d695".to_string()), Some(100)),
        d695_line("r2"),
    );
    let frames = parse_transcript(&run_server(&["--faults", "optimize:delay:300@r1"], &input));
    match &frames[0] {
        ServerFrame::Error(error) => {
            assert_eq!(error.request_id.as_deref(), Some("r1"));
            assert_eq!(error.kind, ErrorKind::DeadlineExceeded);
        }
        other => panic!("expected DeadlineExceeded for r1, got {other:?}"),
    }
    assert!(matches!(&frames[1], ServerFrame::Result(r) if r.request_id == "r2"));
}

#[test]
fn memory_cap_provably_evicts() {
    // A 1-byte cap makes every session oversized: only the hottest stays.
    let big_cell = TestCell::new(
        AteSpec::new(512, 768 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    );
    let p22810_line = serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
        request_id: "r3".to_string(),
        soc: SocSpec::Named("p22810".to_string()),
        request: OptimizeRequest::new(OptimizerConfig::new(big_cell)),
        deadline_ms: None,
        stats: false,
    }))
    .unwrap();
    let input = format!(
        "{}\n{}\n{}\n{}\n",
        d695_line("r1"),
        d695_line("r2"),
        p22810_line,
        d695_line("r4"),
    );
    let frames = parse_transcript(&run_server(&["--max-table-bytes", "1"], &input));
    let warms: Vec<bool> = frames[..4]
        .iter()
        .map(|frame| match frame {
            ServerFrame::Result(result) => result.warm,
            other => panic!("expected result, got {other:?}"),
        })
        .collect();
    // d695 cold, d695 warm (sole oversized survivor), p22810 evicts it,
    // d695 must rebuild.
    assert_eq!(warms, [false, true, false, false]);
    match &frames[4] {
        ServerFrame::Bye(stats) => {
            assert_eq!(stats.sessions_created, 3);
            assert_eq!(stats.evictions, 2);
        }
        other => panic!("expected Bye, got {other:?}"),
    }
}

#[test]
fn session_cap_evicts_least_recently_used() {
    // Cap 2, with an inline tiny SOC as the third distinct content.
    let mut tiny = soctest_soc_model::Soc::new("tiny");
    tiny.push_module(
        soctest_soc_model::Module::builder("m")
            .patterns(3)
            .inputs(2)
            .outputs(2)
            .scan_chain(8)
            .build(),
    );
    let tiny_text = soctest_soc_model::writer::write_soc(&tiny);
    let big_cell = TestCell::new(
        AteSpec::new(512, 768 * 1024, 5.0e6),
        ProbeStation::paper_probe_station(),
    );
    let p22810_line = serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
        request_id: "r2".to_string(),
        soc: SocSpec::Named("p22810".to_string()),
        request: OptimizeRequest::new(OptimizerConfig::new(big_cell)),
        deadline_ms: None,
        stats: false,
    }))
    .unwrap();
    let input = format!(
        "{}\n{}\n{}\n{}\n{}\n",
        d695_line("r1"),
        p22810_line,
        d695_line("r3"),
        optimize_line("r4", SocSpec::Inline(tiny_text), None),
        d695_line("r5"),
    );
    let frames = parse_transcript(&run_server(&["--max-sessions", "2"], &input));
    let warms: Vec<bool> = frames[..5]
        .iter()
        .map(|frame| match frame {
            ServerFrame::Result(result) => result.warm,
            other => panic!("expected result, got {other:?}"),
        })
        .collect();
    // r3 touches d695 hot, so admitting the tiny SOC evicts p22810 and
    // d695 stays warm for r5.
    assert_eq!(warms, [false, false, true, false, true]);
    match &frames[5] {
        ServerFrame::Bye(stats) => {
            assert_eq!(stats.evictions, 1);
            assert_eq!(stats.session_hits, 2);
        }
        other => panic!("expected Bye, got {other:?}"),
    }
}

/// A unique scratch directory for cache-dir tests, removed on drop.
struct CacheDirGuard(std::path::PathBuf);

impl CacheDirGuard {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("soctest-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create cache dir");
        CacheDirGuard(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for CacheDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn identical_frames_coalesce_onto_one_computation() {
    let input = format!(
        "{}\n{}\n{}\n{}\n",
        d695_line("r1"),
        d695_line("r2"),
        d695_line("r3"),
        d695_line("r4"),
    );
    let transcript = run_server(&[], &input);
    let frames = parse_transcript(&transcript);
    let leader_response = match &frames[0] {
        ServerFrame::Result(result) => result.response.clone(),
        other => panic!("expected result for r1, got {other:?}"),
    };
    for (frame, id) in frames[..4].iter().zip(["r1", "r2", "r3", "r4"]) {
        match frame {
            ServerFrame::Result(result) => {
                assert_eq!(result.request_id, id);
                assert_eq!(result.cached, id != "r1");
                // Every answer is bit-identical to the leader's.
                assert_eq!(result.response, leader_response);
            }
            other => panic!("expected result for {id}, got {other:?}"),
        }
    }
    match &frames[4] {
        ServerFrame::Bye(stats) => {
            // One computation served all four identical frames.
            assert_eq!(stats.cache.result_misses, 1);
            assert_eq!(stats.cache.result_hits, 3);
        }
        other => panic!("expected Bye, got {other:?}"),
    }
}

#[test]
fn cancelled_request_does_not_poison_identical_successors() {
    // r1 is cancelled mid-flight; its error must not be cached, so the
    // identical r2 computes a normal answer.
    let input = format!(
        "{}\n{{\"Cancel\":{{\"request_id\":\"r1\"}}}}\n{}\n",
        d695_line("r1"),
        d695_line("r2"),
    );
    let frames = parse_transcript(&run_server(&["--faults", "optimize:delay:400@r1"], &input));
    assert!(matches!(
        &frames[0],
        ServerFrame::Error(e) if e.kind == ErrorKind::Cancelled
    ));
    match &frames[1] {
        ServerFrame::Result(result) => {
            assert_eq!(result.request_id, "r2");
            assert!(
                !result.cached,
                "a failed leader must not populate the cache"
            );
        }
        other => panic!("expected result for r2, got {other:?}"),
    }
}

#[test]
fn warm_cache_dir_restart_rebuilds_zero_rows_across_processes() {
    let guard = CacheDirGuard::new("warm");
    let input = format!("{}\n{}\n", d695_line("r1"), d695_line("r2"));
    let cold = run_server(&["--cache-dir", guard.path()], &input);
    let warm = run_server(&["--cache-dir", guard.path()], &input);

    let cold_frames = parse_transcript(&cold);
    let warm_frames = parse_transcript(&warm);
    assert_eq!(cold_frames.len(), warm_frames.len());
    for (index, (cold_frame, warm_frame)) in
        cold_frames[..2].iter().zip(&warm_frames[..2]).enumerate()
    {
        let (ServerFrame::Result(cold_result), ServerFrame::Result(warm_result)) =
            (cold_frame, warm_frame)
        else {
            panic!("expected results, got {cold_frame:?} / {warm_frame:?}");
        };
        // Bit-identical answers across the restart...
        assert_eq!(cold_result.response, warm_result.response);
        // ...but the restarted process serves *every* request from the
        // persisted solution cache, including the one the cold process
        // had to compute.
        assert_eq!(cold_result.cached, index != 0);
        assert!(warm_result.cached, "persisted solutions answer repeats");
    }

    let cold_bye = match cold_frames.into_iter().next_back().unwrap() {
        ServerFrame::Bye(stats) => stats,
        other => panic!("expected Bye, got {other:?}"),
    };
    let warm_bye = match warm_frames.into_iter().next_back().unwrap() {
        ServerFrame::Bye(stats) => stats,
        other => panic!("expected Bye, got {other:?}"),
    };
    assert!(cold_bye.cache.cells_computed > 0);
    assert!(cold_bye.cache.store_rows_saved > 0);
    assert_eq!(cold_bye.cache.store_cells_loaded, 0);
    // The second process loaded every row and rebuilt none.
    assert_eq!(
        warm_bye.cache.cells_computed, 0,
        "zero rows rebuilt on warm restart"
    );
    assert!(warm_bye.cache.store_cells_loaded > 0);
    // Both requests of the warm process were solution-cache hits.
    assert_eq!(warm_bye.cache.result_hits, 2);
    assert_eq!(warm_bye.cache.result_misses, 0);
}

#[test]
fn size_capped_cache_dir_restart_stays_under_bound_with_zero_rebuilds() {
    let guard = CacheDirGuard::new("capped");
    let input = format!("{}\n{}\n", d695_line("r1"), d695_line("r2"));
    let cap: u64 = 64 * 1024;
    let cap_text = cap.to_string();
    let args = [
        "--cache-dir",
        guard.path(),
        "--max-store-bytes",
        cap_text.as_str(),
    ];
    let cold = run_server(&args, &input);
    let rows_path = guard.0.join("rows.v1");
    let rows_len = std::fs::metadata(&rows_path)
        .expect("rows.v1 written")
        .len();
    assert!(rows_len > 0 && rows_len <= cap, "{rows_len} vs cap {cap}");
    assert!(guard.0.join("solutions.v1").is_file());

    // The second process against the capped dir: bit-identical answers,
    // zero cells rebuilt, every request a solution-cache hit, and the
    // re-saved store still under the bound.
    let warm = run_server(&args, &input);
    let cold_frames = parse_transcript(&cold);
    let warm_frames = parse_transcript(&warm);
    for (cold_frame, warm_frame) in cold_frames[..2].iter().zip(&warm_frames[..2]) {
        let (ServerFrame::Result(cold_result), ServerFrame::Result(warm_result)) =
            (cold_frame, warm_frame)
        else {
            panic!("expected results, got {cold_frame:?} / {warm_frame:?}");
        };
        assert_eq!(cold_result.response, warm_result.response);
        assert!(warm_result.cached);
    }
    match warm_frames.last().unwrap() {
        ServerFrame::Bye(stats) => {
            assert_eq!(stats.cache.cells_computed, 0, "zero rebuilds under the cap");
            assert_eq!(stats.cache.result_hits, 2);
            assert_eq!(stats.cache.result_misses, 0);
        }
        other => panic!("expected Bye, got {other:?}"),
    }
    let rows_len = std::fs::metadata(&rows_path)
        .expect("rows.v1 re-saved")
        .len();
    assert!(rows_len <= cap, "the re-save broke the bound: {rows_len}");

    // A bound tighter than any row forces the garbage collection to
    // shed everything: the file degrades to a valid (row-less) envelope
    // under the bound, and a restart against it still answers every
    // request bit-identically.
    let tiny = CacheDirGuard::new("tiny-cap");
    let tight_args = ["--cache-dir", tiny.path(), "--max-store-bytes", "100"];
    run_server(&tight_args, &input);
    let tiny_len = std::fs::metadata(tiny.0.join("rows.v1"))
        .expect("capped rows.v1 written")
        .len();
    assert!(tiny_len <= 100, "tight bound violated: {tiny_len}");
    let replay_frames = parse_transcript(&run_server(&tight_args, &input));
    for (cold_frame, replay_frame) in cold_frames[..2].iter().zip(&replay_frames[..2]) {
        let (ServerFrame::Result(cold_result), ServerFrame::Result(replay_result)) =
            (cold_frame, replay_frame)
        else {
            panic!("expected results, got {cold_frame:?} / {replay_frame:?}");
        };
        assert_eq!(cold_result.response, replay_result.response);
    }
}

#[test]
fn corrupt_cache_and_store_faults_never_kill_the_server() {
    let guard = CacheDirGuard::new("corrupt");
    std::fs::write(
        guard.0.join("rows.v1"),
        b"SOCROWS1 not really rows \xff\x00",
    )
    .unwrap();
    let input = format!("{}\n", d695_line("r1"));
    // Corrupt file: clean miss, request still served.
    let frames = parse_transcript(&run_server(&["--cache-dir", guard.path()], &input));
    assert!(matches!(&frames[0], ServerFrame::Result(r) if r.request_id == "r1"));
    match &frames[1] {
        ServerFrame::Bye(stats) => {
            assert_eq!(stats.cache.store_cells_loaded, 0);
            assert!(stats.cache.cells_computed > 0);
        }
        other => panic!("expected Bye, got {other:?}"),
    }
    // Store-stage panics at load and save: the session survives both.
    let frames = parse_transcript(&run_server(
        &[
            "--cache-dir",
            guard.path(),
            "--faults",
            "store:panic@load,store:panic@save",
        ],
        &input,
    ));
    assert!(matches!(&frames[0], ServerFrame::Result(r) if r.request_id == "r1"));
    match &frames[1] {
        ServerFrame::Bye(stats) => {
            assert_eq!(stats.cache.store_cells_loaded, 0);
            assert_eq!(stats.cache.store_rows_saved, 0);
            assert_eq!(stats.served, 1);
        }
        other => panic!("expected Bye, got {other:?}"),
    }
}

#[test]
fn full_queue_sheds_in_admission_order() {
    // r1 is held for 600 ms; the admission delay on r2 lets the executor
    // pop r1 first, so r2 fills the single queue slot and r3/r4 are shed.
    let input = format!(
        "{}\n{}\n{}\n{}\n",
        d695_line("r1"),
        d695_line("r2"),
        d695_line("r3"),
        d695_line("r4"),
    );
    let frames = parse_transcript(&run_server(
        &[
            "--queue-cap",
            "1",
            "--faults",
            "optimize:delay:600@r1,admission:delay:200@r2",
        ],
        &input,
    ));
    assert!(matches!(&frames[0], ServerFrame::Result(r) if r.request_id == "r1"));
    assert!(matches!(&frames[1], ServerFrame::Result(r) if r.request_id == "r2"));
    for (frame, id) in frames[2..4].iter().zip(["r3", "r4"]) {
        match frame {
            ServerFrame::Error(error) => {
                assert_eq!(error.request_id.as_deref(), Some(id));
                assert_eq!(error.kind, ErrorKind::Overloaded);
            }
            other => panic!("expected Overloaded for {id}, got {other:?}"),
        }
    }
    match &frames[4] {
        ServerFrame::Bye(stats) => assert_eq!((stats.served, stats.errors), (2, 2)),
        other => panic!("expected Bye, got {other:?}"),
    }
}
