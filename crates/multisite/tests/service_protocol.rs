//! Property tests of the `soc-serve` NDJSON wire protocol: random typed
//! frames survive a JSON round trip bit-exactly, and mangled frames —
//! unknown fields, injected duplicates, truncation at any byte — are
//! rejected rather than silently reinterpreted. Arbitrary bytes, chars
//! and edits of real frames never panic the frame reader, and whatever it
//! accepts renders back to the same frame; arbitrary Unicode strings
//! round-trip exactly. The spliced `Result` line the server writes equals
//! the serde rendering of the same frame.

use proptest::collection::vec;
use proptest::prelude::*;
use soctest_ate::{AteSpec, ProbeStation, TestCell};
use soctest_multisite::engine::{Engine, OptimizeResponse};
use soctest_multisite::service::{
    parse_client_frame, render_server_frame, CacheStats, ClientFrame, ConnectionStats, ErrorFrame,
    ErrorKind, OptimizeFrame, Provenance, RequestStats, ResultFrame, ServerFrame, ServerStats,
    SocSpec, TraceSummary,
};
use soctest_multisite::{OptimizeRequest, OptimizerConfig, SweepAxis};
use soctest_soc_model::benchmarks::d695;
use soctest_soc_model::synthetic::pnx8550_like;
use soctest_soc_model::writer::write_soc;
use std::sync::OnceLock;

/// Maps a generated `(class, offset)` pair to a `char`, spreading draws
/// over the character classes a JSON reader and writer treat differently:
/// control characters, the escaped ASCII characters, JSON punctuation,
/// printable ASCII and two-, three- and four-byte UTF-8.
fn pick_char(class: u8, offset: u32) -> char {
    const ESCAPED: &[char] = &['"', '\\', '/', '\u{7f}', '\n', '\r', '\t'];
    const PUNCTUATION: &[u8] = b"{}[]:,\"\\ .-+eE0123456789truefalsn";
    let code = match class % 7 {
        0 => offset % 0x20,
        1 => return ESCAPED[offset as usize % ESCAPED.len()],
        2 => return char::from(PUNCTUATION[offset as usize % PUNCTUATION.len()]),
        3 => 0x20 + offset % 0x5f,
        4 => 0x80 + offset % 0x780,
        5 => 0x800 + offset % 0xF800,
        _ => 0x1_0000 + offset % 0x10_0000,
    };
    // Surrogate code points are not `char`s; stand in the replacement
    // character, itself a three-byte sequence.
    char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
}

fn arb_text(max_len: usize) -> impl Strategy<Value = Vec<(u8, u32)>> {
    vec((0u8..7, 0u32..0x10_0000), 0..max_len)
}

fn text_of(draws: &[(u8, u32)]) -> String {
    draws
        .iter()
        .map(|&(class, offset)| pick_char(class, offset))
        .collect()
}

/// Checks the frame reader's contract on one input line: it answers
/// `Ok` or `Err` without panicking, and an accepted frame renders back
/// to a line that parses to the same frame.
fn check_reader_contract(line: &str) -> Result<(), TestCaseError> {
    if let Ok(frame) = parse_client_frame(line) {
        let rendered = serde_json::to_string(&frame).map_err(|err| {
            TestCaseError::fail(format!("accepted {line:?} but cannot render it: {err}"))
        })?;
        let back = parse_client_frame(&rendered).map_err(|err| {
            TestCaseError::fail(format!(
                "accepted {line:?} but rejected its rendering: {err}"
            ))
        })?;
        prop_assert_eq!(back, frame);
    }
    Ok(())
}

prop_compose! {
    fn arb_id()(bytes in vec(97u8..=122u8, 1..12)) -> String {
        String::from_utf8(bytes).expect("lowercase ascii")
    }
}

prop_compose! {
    fn arb_soc_spec()(named in 0u8..2, name in arb_id()) -> SocSpec {
        if named == 0 {
            SocSpec::Named(name)
        } else {
            SocSpec::Inline(format!("soc {name}\n"))
        }
    }
}

prop_compose! {
    fn arb_sweep()(
        which in 0u8..5,
        channels in vec(1usize..2048, 1..5),
        depths in vec(1024u64..(1 << 22), 1..5),
        yields_millis in vec(1u64..1000, 1..4),
        max_sites in 1usize..32,
    ) -> SweepAxis {
        // Yields travel as f64 but are generated on a millis grid so the
        // JSON round trip is bit-exact by construction, like the real
        // client would send.
        let yields: Vec<f64> = yields_millis.iter().map(|&m| m as f64 / 1000.0).collect();
        match which {
            0 => SweepAxis::None,
            1 => SweepAxis::Channels(channels),
            2 => SweepAxis::DepthVectors(depths),
            3 => SweepAxis::ContactYield {
                depths,
                contact_yields: yields,
            },
            _ => SweepAxis::ManufacturingYield {
                max_sites,
                manufacturing_yields: yields,
            },
        }
    }
}

prop_compose! {
    fn arb_request()(
        channels in 8usize..2048,
        depth in 1024u64..(1 << 24),
        clock_mhz in 1u64..200,
        sweep in arb_sweep(),
    ) -> OptimizeRequest {
        let cell = TestCell::new(
            AteSpec::new(channels, depth, clock_mhz as f64 * 1.0e6),
            ProbeStation::paper_probe_station(),
        );
        OptimizeRequest::new(OptimizerConfig::new(cell)).with_sweep(sweep)
    }
}

prop_compose! {
    fn arb_client_frame()(
        which in 0u8..3,
        request_id in arb_id(),
        soc in arb_soc_spec(),
        request in arb_request(),
        deadline_ms in 0u64..100_000,
        with_deadline in 0u8..2,
        with_stats in 0u8..2,
    ) -> ClientFrame {
        match which {
            0 => ClientFrame::Optimize(OptimizeFrame {
                request_id,
                soc,
                request,
                deadline_ms: (with_deadline == 1).then_some(deadline_ms),
                stats: with_stats == 1,
            }),
            1 => ClientFrame::Cancel { request_id },
            _ => ClientFrame::Shutdown,
        }
    }
}

prop_compose! {
    fn arb_server_frame()(
        which in 0u8..3,
        request_id in arb_id(),
        anonymous in 0u8..2,
        kind_index in 0usize..9,
        message in arb_id(),
        counters in vec(0u64..10_000, 21),
        with_trace in 0u8..2,
        with_connection in 0u8..2,
    ) -> ServerFrame {
        let kinds = [
            ErrorKind::Protocol,
            ErrorKind::UnknownRequest,
            ErrorKind::InvalidSoc,
            ErrorKind::InvalidConfig,
            ErrorKind::Architecture,
            ErrorKind::Internal,
            ErrorKind::Cancelled,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Overloaded,
        ];
        match which {
            0 => ServerFrame::Error(ErrorFrame {
                request_id: (anonymous == 0).then_some(request_id),
                kind: kinds[kind_index],
                message,
            }),
            _ => ServerFrame::Bye(ServerStats {
                served: counters[0],
                errors: counters[1],
                internal_errors: counters[18],
                sessions_created: counters[2],
                session_hits: counters[3],
                session_misses: counters[4],
                evictions: counters[5],
                cache: CacheStats {
                    result_hits: counters[6],
                    result_misses: counters[7],
                    coalesced_waits: counters[8],
                    coalesced_served: counters[9],
                    result_bytes: counters[10],
                    cells_computed: counters[11],
                    store_cells_loaded: counters[12],
                    store_rows_saved: counters[13],
                },
                trace: (with_trace == 1).then_some(TraceSummary {
                    requests: counters[14],
                    cells_built: counters[15],
                    cells_inherited: counters[16],
                    store_cells_computed: counters[17],
                }),
                connection: (with_connection == 1).then_some(ConnectionStats {
                    id: counters[19],
                    requests: counters[20],
                }),
            }),
        }
    }
}

proptest! {
    #[test]
    fn client_frames_round_trip(frame in arb_client_frame()) {
        let line = serde_json::to_string(&frame).expect("client frames serialise");
        prop_assert!(!line.contains('\n'), "a frame must be one line: {line}");
        let back = parse_client_frame(&line)
            .map_err(|err| TestCaseError::fail(format!("rejected own frame: {err}")))?;
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn server_frames_round_trip(frame in arb_server_frame()) {
        let line = render_server_frame(&frame);
        prop_assert!(!line.contains('\n'), "a frame must be one line: {line}");
        let back: ServerFrame = serde_json::from_str(&line)
            .map_err(|err| TestCaseError::fail(format!("rejected own frame: {err}")))?;
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn truncated_frames_are_rejected_at_every_byte(
        frame in arb_client_frame(),
        cut_permille in 0u32..1000,
    ) {
        let line = serde_json::to_string(&frame).expect("client frames serialise");
        // Every strict ASCII-safe prefix must fail to parse — a dropped
        // TCP segment or a half-written pipe must never yield a frame.
        let cut = (line.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let prefix: String = line.chars().take(cut.min(line.len().saturating_sub(1))).collect();
        prop_assert!(
            parse_client_frame(&prefix).is_err(),
            "accepted truncated frame: {prefix:?}"
        );
    }

    #[test]
    fn unknown_fields_are_rejected(
        request_id in arb_id(),
        soc in arb_soc_spec(),
        request in arb_request(),
        bogus in arb_id(),
    ) {
        let frame = ClientFrame::Optimize(OptimizeFrame {
            request_id,
            soc,
            request,
            deadline_ms: None,
            stats: false,
        });
        let line = serde_json::to_string(&frame).expect("client frames serialise");
        // Splice an unexpected field into the Optimize body. `bogus` is
        // lowercase-alpha, so it never collides with a real field name
        // spelled with an underscore — force a distinct name regardless.
        let field = format!("zz_{bogus}");
        let mangled = line.replacen(
            "{\"Optimize\":{",
            &format!("{{\"Optimize\":{{\"{field}\":1,"),
            1,
        );
        prop_assert!(
            parse_client_frame(&mangled).is_err(),
            "accepted unknown field {field}: {mangled}"
        );
    }

    #[test]
    fn duplicate_fields_are_rejected(request_id in arb_id()) {
        let line = format!(
            "{{\"Cancel\":{{\"request_id\":\"{request_id}\",\"request_id\":\"{request_id}\"}}}}"
        );
        prop_assert!(parse_client_frame(&line).is_err(), "accepted duplicate field: {line}");
    }
}

proptest! {
    // The fuzz properties are cheap per case, so they run many more.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_chars_never_panic_the_reader(draws in arb_text(96)) {
        check_reader_contract(&text_of(&draws))?;
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(bytes in vec(0u8..=255, 0..96)) {
        check_reader_contract(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn edited_frames_never_panic_the_reader(
        frame in arb_client_frame(),
        edits in vec((0u32..1000, 0u8..3, 0u8..7, 0u32..0x10_0000), 1..4),
    ) {
        // Delete, replace or insert a few chars of a real frame, so that
        // most edits stay close enough to the grammar to reach the typed
        // layer, and some still parse.
        let mut chars: Vec<char> = serde_json::to_string(&frame)
            .expect("client frames serialise")
            .chars()
            .collect();
        for &(at_permille, op, class, offset) in &edits {
            let at = chars.len() * at_permille as usize / 1000;
            let c = pick_char(class, offset);
            match op {
                0 if at < chars.len() => {
                    chars.remove(at);
                }
                1 if at < chars.len() => chars[at] = c,
                _ => chars.insert(at, c),
            }
        }
        check_reader_contract(&chars.into_iter().collect::<String>())?;
    }

    #[test]
    fn unicode_strings_round_trip_exactly(draws in arb_text(128)) {
        let text = text_of(&draws);
        let line = serde_json::to_string(&text).expect("strings serialise");
        prop_assert!(!line.contains('\n'), "a string must render on one line: {line:?}");
        let back: String = serde_json::from_str(&line)
            .map_err(|err| TestCaseError::fail(format!("rejected own string {line:?}: {err}")))?;
        prop_assert_eq!(back, text);
    }
}

#[test]
fn a_multi_megabyte_inline_frame_parses() {
    // The frame reader is linear in the frame length: a reader that
    // re-scanned the rest of the line per string byte would take hours
    // here. No timing is asserted; finishing is the test.
    let module_text = write_soc(&pnx8550_like());
    let mut inline = String::new();
    while inline.len() < 4 << 20 {
        inline.push_str(&module_text);
    }
    let frame = ClientFrame::Optimize(OptimizeFrame {
        request_id: "large".to_string(),
        soc: SocSpec::Inline(inline),
        request: OptimizeRequest::new(OptimizerConfig::new(TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        ))),
        deadline_ms: None,
        stats: false,
    });
    let line = serde_json::to_string(&frame).expect("client frames serialise");
    assert_eq!(parse_client_frame(&line), Ok(frame));
}

/// A real plain answer and a real sweep answer for d695, computed once.
fn real_responses() -> &'static [OptimizeResponse; 2] {
    static RESPONSES: OnceLock<[OptimizeResponse; 2]> = OnceLock::new();
    RESPONSES.get_or_init(|| {
        let cell = TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        let plain = OptimizeRequest::new(OptimizerConfig::new(cell));
        let sweep = plain
            .clone()
            .with_sweep(SweepAxis::Channels(vec![128, 192, 256]));
        let engine = Engine::new(&d695());
        [
            engine.run(&plain).expect("d695 plain request is feasible"),
            engine.run(&sweep).expect("d695 sweep is feasible"),
        ]
    })
}

proptest! {
    #[test]
    fn result_lines_splice_to_the_serde_rendering(
        draws in arb_text(24),
        provenance in 0usize..3,
        counters in vec(0u64..10_000, 4),
    ) {
        // Ids with quotes, backslashes, control characters and non-ASCII
        // text, against every warm/cached pair, stats off, on, and on
        // with points reused, for a plain and a sweep response.
        let request_id = text_of(&draws);
        for (response, warm, cached, stats) in real_responses()
            .iter()
            .flat_map(|response| [false, true].map(|warm| (response, warm)))
            .flat_map(|(response, warm)| [false, true].map(|cached| (response, warm, cached)))
            .flat_map(|(response, warm, cached)| {
                [0, 1, 2].map(|stats| (response, warm, cached, stats))
            })
        {
            let frame = ServerFrame::Result(ResultFrame {
                request_id: request_id.clone(),
                warm,
                cached,
                response: response.clone(),
                stats: (stats > 0).then(|| RequestStats {
                    provenance: [Provenance::Hit, Provenance::Coalesced, Provenance::Computed]
                        [provenance],
                    cells_built: counters[0],
                    cells_inherited: counters[1],
                    store_cells_computed: counters[2],
                    points_reused: if stats == 2 { counters[3] } else { 0 },
                }),
            });
            prop_assert_eq!(
                render_server_frame(&frame),
                serde_json::to_string(&frame).expect("server frames serialise")
            );
        }
    }
}
