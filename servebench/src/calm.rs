//! Throughput and latency of the timed phase, with the CPU time the
//! hypervisor stole from this machine left out.
//!
//! Steal (`/proc/stat`) is time the machine's virtual CPUs wanted to run
//! but the host ran another tenant. It comes and goes with the host's
//! load, not with the program, and on a 2-core VM it moved p99 several-
//! fold between runs of unchanged code. So a reply counts towards the
//! latency percentiles only when no steal was observed while it was in
//! flight, and throughput counts replies per second of unstolen time.
//!
//! The filter is biased: the longer a reply is in flight, the likelier
//! it overlaps a stolen span and is left out, so a change that slows
//! only some requests moves p99 less than it would on a machine with no
//! steal. `calm_replies` in the run record shows how many were kept.

use crate::serve::{Outcome, StealSample};

/// Replies per latency window: p99 of a full window has ten samples
/// beyond it. p50 and p99 are the medians over the windows. With fewer
/// calm replies than one window, the windows are taken over every reply
/// instead, so p99 never rests on fewer than ten samples beyond it.
pub const WINDOW: usize = 1000;

/// The kernel shows steal in 10 ms units once the stolen time adds up
/// to the next unit, so a rise of the counter stands for steal that may
/// have started earlier. For the time base of throughput, this much
/// time before each sampling interval in which the counter rose counts
/// as stolen too. A reply is calm when it overlaps no interval in which
/// the counter rose, with no margin: a margin leaves too few calm
/// replies under heavy steal (at 87 ticks a second, 172 of 20305 with
/// a 20 ms margin, 4898 with none), while p99 over the calm replies
/// spread no more across runs without one.
const THROUGHPUT_MARGIN_NS: u64 = 10_000_000;
const LATENCY_MARGIN_NS: u64 = 0;

/// The timed phase's statistics.
pub struct Calm {
    /// Length of the phase, to its last reply.
    pub seconds: f64,
    pub throughput: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Latency windows the percentiles are medians over.
    pub windows: usize,
    /// Replies in flight only while no steal was observed.
    pub calm_replies: usize,
    /// Share of the phase not counted as stolen for throughput.
    pub calm_time_share: f64,
    pub steal_ticks_per_s: f64,
    /// Set when too few replies were calm and the percentiles are over
    /// every reply.
    pub all_replies: bool,
}

/// Merged `[start, end]` nanosecond spans counted as stolen: each
/// sampling interval in which the counter rose, from `margin_ns` before
/// it.
fn stolen_spans(steal: &[StealSample], margin_ns: u64) -> Vec<(u64, u64)> {
    let mut spans: Vec<(u64, u64)> = Vec::new();
    for pair in steal.windows(2) {
        if pair[1].ticks > pair[0].ticks {
            let start = pair[0].at_ns.saturating_sub(margin_ns);
            match spans.last_mut() {
                Some(last) if start <= last.1 => last.1 = pair[1].at_ns,
                _ => spans.push((start, pair[1].at_ns)),
            }
        }
    }
    spans
}

/// Whether `[from, to]` overlaps any of the sorted, disjoint `spans`.
fn overlaps(spans: &[(u64, u64)], from: u64, to: u64) -> bool {
    let first_ending_after = spans.partition_point(|span| span.1 < from);
    spans
        .get(first_ending_after)
        .is_some_and(|span| span.0 <= to)
}

/// Takes from `pending` (each reply's `(sent, done)` nanoseconds) the
/// replies whose steal is settled: the counter has been sampled past
/// their arrival, so steal while they were in flight has shown, and no
/// later stolen span can reach back to them.
/// Returns how many of those were calm. Where there is no steal counter
/// every reply is settled and calm.
pub fn settle_calm(pending: &mut Vec<(u64, u64)>, steal: &[StealSample]) -> usize {
    let Some(last) = steal.last() else {
        return std::mem::take(pending).len();
    };
    let spans = stolen_spans(steal, LATENCY_MARGIN_NS);
    let mut calm = 0;
    pending.retain(|&(sent, done)| {
        let settled = done + LATENCY_MARGIN_NS < last.at_ns;
        if settled && !overlaps(&spans, sent, done) {
            calm += 1;
        }
        !settled
    });
    calm
}

/// Computes the timed phase's statistics from its replies and the steal
/// counter sampled through it.
pub fn calm_stats(outcomes: &[Outcome], steal: &[StealSample]) -> Calm {
    let end = outcomes.iter().map(|o| o.done_ns).max().unwrap_or(0);
    let spans = stolen_spans(steal, THROUGHPUT_MARGIN_NS);
    let stolen_ns: u64 = spans
        .iter()
        .filter(|span| span.0 < end)
        .map(|span| span.1.min(end) - span.0)
        .sum();
    let calm_ns = end.saturating_sub(stolen_ns).max(1);
    let completed_calm = outcomes
        .iter()
        .filter(|o| !overlaps(&spans, o.done_ns, o.done_ns))
        .count();

    let mut arrivals: Vec<(u64, u64)> =
        outcomes.iter().map(|o| (o.done_ns, o.latency_ns)).collect();
    arrivals.sort_unstable();
    let spans = stolen_spans(steal, LATENCY_MARGIN_NS);
    let calm: Vec<u64> = arrivals
        .iter()
        .filter(|(done, latency)| !overlaps(&spans, done - latency, *done))
        .map(|(_, latency)| *latency)
        .collect();
    let calm_replies = calm.len();
    let all_replies = calm_replies < WINDOW;
    let sample: Vec<u64> = if all_replies {
        arrivals.iter().map(|(_, latency)| *latency).collect()
    } else {
        calm
    };
    // A phase shorter than one window, which only a tiny `--seconds`
    // gives, forms one short window.
    let windows: Vec<&[u64]> = if sample.len() < WINDOW {
        vec![&sample]
    } else {
        sample.chunks_exact(WINDOW).collect()
    };
    let (p50s, p99s): (Vec<f64>, Vec<f64>) = windows
        .into_iter()
        .filter(|chunk| !chunk.is_empty())
        .map(|chunk| {
            let mut window = chunk.to_vec();
            window.sort_unstable();
            (percentile_ms(&window, 0.50), percentile_ms(&window, 0.99))
        })
        .unzip();
    let steal_ticks = match (steal.first(), steal.last()) {
        (Some(first), Some(last)) => last.ticks - first.ticks,
        _ => 0,
    };
    Calm {
        seconds: end as f64 / 1e9,
        throughput: completed_calm as f64 / (calm_ns as f64 / 1e9),
        p50_ms: crate::median(&p50s),
        p99_ms: crate::median(&p99s),
        windows: p99s.len(),
        calm_replies,
        calm_time_share: calm_ns as f64 / end.max(1) as f64,
        steal_ticks_per_s: steal_ticks as f64 / (end.max(1) as f64 / 1e9),
        all_replies,
    }
}

/// Nearest-rank percentile of sorted, non-empty nanosecond samples, in
/// milliseconds.
fn percentile_ms(sorted: &[u64], quantile: f64) -> f64 {
    let rank = ((quantile * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e6
}
