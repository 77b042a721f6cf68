//! The correctness gate: every reply must equal, byte for byte, the
//! `Result` frame the server would render for the answer of an engine
//! built for that request alone, which shares no table, row store or
//! cache with any server.

use crate::serve::{Digest, Outcome};
use crate::workload::{Generator, Req};
use soctest_multisite::engine::{Engine, OptimizeResponse};
use soctest_multisite::service::{
    render_server_frame, resolve_named_soc, ResultFrame, ServerFrame, SocSpec,
};
use soctest_soc_model::parser::parse_soc;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Request ids on the wire: warm-pass requests `w<index>`, timed ones
/// `t<index>`, with one index space over the whole run.
pub fn wire_id(index: usize, warm_len: usize) -> String {
    if index < warm_len {
        format!("w{index}")
    } else {
        format!("t{index}")
    }
}

/// The answer of a fresh engine for this request alone.
pub fn fresh_answer(req: &Req) -> Result<OptimizeResponse, String> {
    let soc = match &req.soc {
        SocSpec::Named(name) => resolve_named_soc(name)?,
        SocSpec::Inline(text) => parse_soc(text).map_err(|err| err.to_string())?,
    };
    Engine::new(&soc)
        .run(&req.request)
        .map_err(|err| err.to_string())
}

/// The exact line the server renders for a successful answer.
pub fn expected_line(id: &str, warm: bool, cached: bool, response: &OptimizeResponse) -> String {
    render_server_frame(&ServerFrame::Result(ResultFrame {
        request_id: id.to_string(),
        warm,
        cached,
        response: response.clone(),
        stats: None,
    }))
}

/// Keyed digests of reply lines; the key is random per run, so no fixed
/// pair of lines collides in every run.
pub struct Digester(RandomState);

impl Digester {
    pub fn new() -> Digester {
        Digester(RandomState::new())
    }

    pub fn of(&self, line: &str) -> Digest {
        (line.len(), self.0.hash_one(line))
    }
}

/// Regenerates the request stream of `workload`/`seed` and checks every
/// reply kept for the gate (outcomes sorted by index): the expected line
/// must have the kept length and digest. Marks each wrong reply as a
/// mismatch. Works through the stream in chunks on two threads, so no
/// more than a chunk of expected answers is ever resident; a request
/// that repeats within a chunk is answered once.
pub fn check_kept(workload: &str, seed: u64, digester: &Digester, outcomes: &mut [Outcome]) {
    const CHUNK: usize = 512;
    let mut generator = Generator::new(workload, seed).expect("known workload");
    let warm = generator.warm_pass();
    let warm_len = warm.len();
    let mut reqs = warm.into_iter();
    let mut next_index = 0;
    let mut pending = outcomes.iter_mut().filter(|o| o.kept.is_some()).peekable();
    while pending.peek().is_some() {
        // Each outcome of the chunk with the slot of its distinct request.
        let mut chunk: Vec<(&mut Outcome, usize)> = Vec::with_capacity(CHUNK);
        let mut distinct: Vec<Req> = Vec::new();
        let mut slots: HashMap<String, usize> = HashMap::new();
        while chunk.len() < CHUNK {
            let Some(outcome) = pending.next() else { break };
            let req = loop {
                let req = reqs.next().unwrap_or_else(|| generator.next_req());
                next_index += 1;
                if next_index - 1 == outcome.index {
                    break req;
                }
            };
            let slot = *slots.entry(req.key()).or_insert_with(|| {
                distinct.push(req);
                distinct.len() - 1
            });
            chunk.push((outcome, slot));
        }
        let answers = on_two_threads(&distinct, |req| fresh_answer(req).ok());
        let half = chunk.len().div_ceil(2);
        let (left, right) = chunk.split_at_mut(half);
        std::thread::scope(|scope| {
            for part in [left, right] {
                let answers = &answers;
                scope.spawn(move || {
                    for (outcome, slot) in part.iter_mut() {
                        let id = wire_id(outcome.index, warm_len);
                        let matches = match (outcome.flags, &answers[*slot]) {
                            (Some((warm, cached)), Some(response)) => {
                                outcome.kept
                                    == Some(
                                        digester.of(&expected_line(&id, warm, cached, response)),
                                    )
                            }
                            _ => false,
                        };
                        outcome.mismatch = !matches;
                    }
                });
            }
        });
    }
}

/// `f` over `items`, in order, split across two threads.
fn on_two_threads<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let (left, right) = items.split_at(items.len().div_ceil(2));
    std::thread::scope(|scope| {
        let f = &f;
        let right = scope.spawn(move || right.iter().map(f).collect::<Vec<R>>());
        let mut out: Vec<R> = left.iter().map(f).collect();
        out.extend(right.join().expect("the oracle does not panic"));
        out
    })
}
