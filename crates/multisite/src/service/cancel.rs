//! Cooperative cancellation and per-request deadlines.
//!
//! A [`CancelToken`] is the service's handle on one in-flight request:
//! the reader thread cancels it when a `Cancel` frame arrives, and the
//! optimizer observes it at two granularities:
//!
//! * **sweep-point granularity** — the engine's point loops call
//!   [`CancelToken::check`] between optimizations and return the typed
//!   [`OptimizeError::Cancelled`] / [`OptimizeError::DeadlineExceeded`];
//! * **table-row granularity** — `CancelGuarded` wraps the session's
//!   time table and probes the token once per unit of row-sized work:
//!   every [`TimeLookup::checkpoint`] (one module placed by Step 1, one
//!   site count of Step 2), every [`TimeLookup::min_width_for_time`]
//!   (one module row's binary search, which is where a cold table
//!   fills) and every [`TimeLookup::group_fill`] (one channel-group
//!   re-wrap). Plain [`TimeLookup::time`] lookups are forwarded
//!   unprobed, so a warm table pays nothing per cell, yet one
//!   long-running optimization inside a single sweep point still stops
//!   within a few rows. The probed methods return bare values, so the
//!   guard bails by unwinding with a private `CancelUnwind` payload;
//!   [`crate::engine::Engine::run_with_cancel`] catches it at the
//!   request boundary and converts it back into the typed error.
//!
//! Deadline probes throttle the `Instant::now()` syscall to every 64th
//! row probe (the cancelled flag is checked on every probe — an explicit
//! `Cancel` takes effect at the next row); at typical row costs that
//! bounds the overshoot well below a millisecond.

use crate::error::OptimizeError;
use soctest_soc_model::ModuleId;
use soctest_tam::TimeLookup;
use std::any::Any;
use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Instant;

/// How many table-row probes share one deadline clock read.
const DEADLINE_PROBE_STRIDE: u64 = 64;

/// Sentinel in [`TokenState::deadline_nanos`] for "no deadline armed".
const NO_DEADLINE: u64 = u64::MAX;

/// A shareable cancellation + deadline token for one optimizer request.
///
/// Clones share state: cancelling any clone cancels the request. Tokens
/// are cheap (`Arc` of two words) and safe to poll from every worker
/// thread of a parallel sweep.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenState>,
}

#[derive(Debug)]
struct TokenState {
    cancelled: AtomicBool,
    /// The instant deadlines are measured from (token creation), so the
    /// deadline itself can live in an atomic as nanoseconds-from-anchor.
    anchor: Instant,
    /// Nanoseconds from `anchor` to the deadline; [`NO_DEADLINE`] when
    /// none is armed. Only ever lowered (see
    /// [`CancelToken::impose_deadline`]), so lock-free `fetch_min` is
    /// race-correct: the tightest deadline always wins.
    deadline_nanos: AtomicU64,
    probes: AtomicU64,
    /// Every poll of the token — sweep-point checks and table-row probes
    /// alike — for the engine's request traces.
    polls: AtomicU64,
}

/// Nanoseconds from `anchor` to `deadline`, clamped below the
/// [`NO_DEADLINE`] sentinel; a deadline at or before the anchor maps to
/// zero (already expired).
fn nanos_from(anchor: Instant, deadline: Instant) -> u64 {
    let nanos = deadline.saturating_duration_since(anchor).as_nanos();
    u64::try_from(nanos)
        .unwrap_or(NO_DEADLINE - 1)
        .min(NO_DEADLINE - 1)
}

impl CancelToken {
    /// A token with no deadline; cancels only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken::build(None)
    }

    /// A token that additionally expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken::build(Some(deadline))
    }

    fn build(deadline: Option<Instant>) -> Self {
        install_quiet_cancel_hook();
        let anchor = Instant::now();
        CancelToken {
            inner: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                anchor,
                deadline_nanos: AtomicU64::new(
                    deadline.map_or(NO_DEADLINE, |d| nanos_from(anchor, d)),
                ),
                probes: AtomicU64::new(0),
                polls: AtomicU64::new(0),
            }),
        }
    }

    /// Arms (or tightens) the deadline to at most `deadline`: the
    /// effective deadline is the minimum of every deadline the token has
    /// ever been given, so a drain can only shorten a request's budget,
    /// never extend one the client asked for. Used by the transport's
    /// graceful drain to bound in-flight work after the grace period.
    pub fn impose_deadline(&self, deadline: Instant) {
        let nanos = nanos_from(self.inner.anchor, deadline);
        self.inner
            .deadline_nanos
            .fetch_min(nanos, Ordering::Relaxed);
    }

    /// Whether the armed deadline (if any) has passed.
    fn deadline_expired(&self) -> bool {
        let nanos = self.inner.deadline_nanos.load(Ordering::Relaxed);
        nanos != NO_DEADLINE && self.inner.anchor.elapsed().as_nanos() >= u128::from(nanos)
    }

    /// Whether any deadline is armed (without reading the clock).
    fn has_deadline(&self) -> bool {
        self.inner.deadline_nanos.load(Ordering::Relaxed) != NO_DEADLINE
    }

    /// Requests cooperative cancellation. Idempotent; takes effect at the
    /// optimizer's next check point (sweep point or table-row probe).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called (deadline expiry
    /// is not reflected here — use [`CancelToken::check`]).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Polls the token: `Ok(())` to keep going, or the typed reason to
    /// stop ([`OptimizeError::Cancelled`] wins over
    /// [`OptimizeError::DeadlineExceeded`] when both hold).
    ///
    /// # Errors
    ///
    /// [`OptimizeError::Cancelled`] after [`CancelToken::cancel`];
    /// [`OptimizeError::DeadlineExceeded`] once the deadline has passed.
    pub fn check(&self) -> Result<(), OptimizeError> {
        self.inner.polls.fetch_add(1, Ordering::Relaxed);
        if self.is_cancelled() {
            return Err(OptimizeError::Cancelled);
        }
        if self.deadline_expired() {
            return Err(OptimizeError::DeadlineExceeded);
        }
        Ok(())
    }

    /// How many times this token has been polled so far — sweep-point
    /// checks and table-row probes alike. This is the cancellation-probe
    /// count the engine's `RequestTrace` attributes to a request (clones
    /// share the counter, so a parallel sweep's probes all land here).
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Relaxed)
    }

    /// [`CancelToken::check`] for hot paths: the cancelled flag is read
    /// every call, the deadline clock only every
    /// [`DEADLINE_PROBE_STRIDE`]th call.
    fn check_throttled(&self) -> Result<(), OptimizeError> {
        self.inner.polls.fetch_add(1, Ordering::Relaxed);
        if self.is_cancelled() {
            return Err(OptimizeError::Cancelled);
        }
        if self.has_deadline() {
            let probe = self.inner.probes.fetch_add(1, Ordering::Relaxed);
            if probe.is_multiple_of(DEADLINE_PROBE_STRIDE) && self.deadline_expired() {
                return Err(OptimizeError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Unwinds with a [`CancelUnwind`] payload when the token says stop —
    /// the escape hatch for infallible interfaces like
    /// [`TimeLookup::checkpoint`]. Must run under the `catch_unwind` of
    /// [`crate::engine::Engine::run_with_cancel`], which turns the
    /// payload back into the typed error.
    pub(crate) fn bail_if_stopped(&self) {
        if let Err(reason) = self.check_throttled() {
            panic::panic_any(CancelUnwind(reason));
        }
    }

    /// Recovers the typed stop reason from a caught unwind payload, or
    /// hands the payload back when it is a genuine panic.
    pub(crate) fn unwind_reason(
        payload: Box<dyn Any + Send>,
    ) -> Result<OptimizeError, Box<dyn Any + Send>> {
        payload.downcast::<CancelUnwind>().map(|unwind| unwind.0)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// The unwind payload of a cooperative stop: not an error in the process,
/// just a control-flow envelope for the typed reason.
struct CancelUnwind(OptimizeError);

/// Installs (once per process) a panic hook that stays silent for
/// [`CancelUnwind`] payloads — cancellation is normal service operation
/// and must not spam stderr — and delegates everything else to the
/// previously installed hook.
fn install_quiet_cancel_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CancelUnwind>().is_none() {
                previous(info);
            }
        }));
    });
}

/// A [`TimeLookup`] adapter that probes a [`CancelToken`] once per table
/// row — at every [`TimeLookup::checkpoint`], [`TimeLookup::min_width_for_time`]
/// and [`TimeLookup::group_fill`] — giving row-granular cancellation to
/// every algorithm that reads the table, while [`TimeLookup::time`] stays
/// a plain forward.
#[derive(Debug)]
pub(crate) struct CancelGuarded<'a, T: ?Sized> {
    table: &'a T,
    token: &'a CancelToken,
}

impl<'a, T: TimeLookup + ?Sized> CancelGuarded<'a, T> {
    pub(crate) fn new(table: &'a T, token: &'a CancelToken) -> Self {
        CancelGuarded { table, token }
    }
}

impl<T: TimeLookup + ?Sized> TimeLookup for CancelGuarded<'_, T> {
    fn num_modules(&self) -> usize {
        self.table.num_modules()
    }

    fn max_width(&self) -> usize {
        self.table.max_width()
    }

    fn time(&self, module: ModuleId, width: usize) -> u64 {
        self.table.time(module, width)
    }

    fn checkpoint(&self) {
        self.token.bail_if_stopped();
        self.table.checkpoint();
    }

    fn min_width_for_time(&self, module: ModuleId, max_cycles: u64) -> Option<usize> {
        self.token.bail_if_stopped();
        self.table.min_width_for_time(module, max_cycles)
    }

    fn group_fill(&self, modules: &[ModuleId], width: usize) -> u64 {
        self.token.bail_if_stopped();
        self.table.group_fill(modules, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_tam::TimeTable;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    #[test]
    fn fresh_token_passes_checks() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(token.check().is_ok());
    }

    #[test]
    fn polls_count_every_check_and_are_shared_by_clones() {
        let token = CancelToken::new();
        assert_eq!(token.polls(), 0);
        token.check().unwrap();
        token.check().unwrap();
        token.check_throttled().unwrap();
        assert_eq!(token.polls(), 3);
        token.clone().check().unwrap();
        assert_eq!(token.polls(), 4);
    }

    #[test]
    fn cancel_is_observed_and_idempotent() {
        let token = CancelToken::new();
        token.cancel();
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.check(), Err(OptimizeError::Cancelled));
        // Clones share the flag.
        let clone = token.clone();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn expired_deadline_is_reported() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(token.check(), Err(OptimizeError::DeadlineExceeded));
        // Cancellation wins over the deadline.
        token.cancel();
        assert_eq!(token.check(), Err(OptimizeError::Cancelled));
    }

    #[test]
    fn future_deadline_passes() {
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(token.check().is_ok());
    }

    #[test]
    fn imposed_deadline_arms_a_deadline_free_token() {
        let token = CancelToken::new();
        assert!(token.check().is_ok());
        token.impose_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(token.check(), Err(OptimizeError::DeadlineExceeded));
    }

    #[test]
    fn imposed_deadline_only_tightens() {
        // Tightening an hour-away deadline to "already expired" fires...
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        token.impose_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(token.check(), Err(OptimizeError::DeadlineExceeded));
        // ...but an expired deadline cannot be pushed back out.
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        expired.impose_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(expired.check(), Err(OptimizeError::DeadlineExceeded));
    }

    #[test]
    fn bail_unwinds_with_a_recoverable_reason() {
        let token = CancelToken::new();
        token.cancel();
        let payload = catch_unwind(AssertUnwindSafe(|| token.bail_if_stopped()))
            .expect_err("cancelled token must unwind");
        assert_eq!(
            CancelToken::unwind_reason(payload).unwrap(),
            OptimizeError::Cancelled
        );
    }

    #[test]
    fn foreign_panics_are_handed_back() {
        let payload = catch_unwind(|| panic::panic_any("plain panic")).unwrap_err();
        assert!(CancelToken::unwind_reason(payload).is_err());
    }

    #[test]
    fn throttled_deadline_check_fires_within_a_stride() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let mut stopped = false;
        for _ in 0..=DEADLINE_PROBE_STRIDE {
            if token.check_throttled().is_err() {
                stopped = true;
                break;
            }
        }
        assert!(stopped, "expired deadline not observed within one stride");
    }

    /// A small eager table to guard: d695 up to width 16.
    fn d695_table() -> TimeTable {
        TimeTable::build(&soctest_soc_model::benchmarks::d695(), 16)
    }

    /// One row-granular probe of a guarded table, by name.
    type RowProbe = (&'static str, fn(&CancelGuarded<'_, TimeTable>));

    /// The three row-granular probes, each invoked once.
    fn row_probes() -> [RowProbe; 3] {
        [
            ("checkpoint", |guarded| guarded.checkpoint()),
            ("min_width_for_time", |guarded| {
                std::hint::black_box(guarded.min_width_for_time(ModuleId(0), u64::MAX));
            }),
            ("group_fill", |guarded| {
                std::hint::black_box(guarded.group_fill(&[ModuleId(0), ModuleId(1)], 4));
            }),
        ]
    }

    #[test]
    fn guarded_time_is_a_plain_forward() {
        let table = d695_table();
        // Even a cancelled token is not consulted by a cell lookup.
        let token = CancelToken::new();
        token.cancel();
        let guarded = CancelGuarded::new(&table, &token);
        for width in 1..=16 {
            assert_eq!(
                guarded.time(ModuleId(3), width),
                table.time(ModuleId(3), width)
            );
        }
        assert_eq!(token.polls(), 0);
    }

    #[test]
    fn each_row_probe_polls_exactly_once_and_forwards() {
        let table = d695_table();
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        let guarded = CancelGuarded::new(&table, &token);
        for (name, probe) in row_probes() {
            let before = token.polls();
            probe(&guarded);
            assert_eq!(token.polls() - before, 1, "{name} must poll exactly once");
        }
        assert_eq!(
            guarded.min_width_for_time(ModuleId(2), table.time(ModuleId(2), 5)),
            table.min_width_for_time(ModuleId(2), table.time(ModuleId(2), 5))
        );
        let modules = [ModuleId(0), ModuleId(4), ModuleId(7)];
        assert_eq!(
            guarded.group_fill(&modules, 9),
            table.group_fill(&modules, 9)
        );
    }

    #[test]
    fn each_row_probe_unwinds_a_cancelled_token() {
        let table = d695_table();
        let token = CancelToken::new();
        token.cancel();
        let guarded = CancelGuarded::new(&table, &token);
        for (name, probe) in row_probes() {
            let payload = catch_unwind(AssertUnwindSafe(|| probe(&guarded)))
                .expect_err("a cancelled token must unwind");
            assert_eq!(
                CancelToken::unwind_reason(payload).unwrap_or_else(|_| panic!("{name}")),
                OptimizeError::Cancelled,
                "{name} must unwind with Cancelled"
            );
        }
    }
}
