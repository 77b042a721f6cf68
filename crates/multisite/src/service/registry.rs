//! The warm-session registry: content-hash-keyed LRU of [`Engine`]s with
//! memory accounting.
//!
//! The service holds one engine per distinct SOC *content*: the key is an
//! FNV-1a hash of the canonical [`write_soc`] rendering, so an inline
//! `.soc` document and a named benchmark with identical content share one
//! warm session (same table, same cached cells) regardless of how the
//! client spelled them. Sessions are evicted least-recently-used when the
//! registry exceeds its session-count or memory cap; memory is charged as
//! each engine's [`Engine::table_memory_bytes`] estimate and re-assessed
//! after every request (tables grow on demand). The most recently used
//! session is never evicted — a single session larger than the whole cap
//! is allowed to exist alone, it just prevents any second resident
//! session.
//!
//! Lookup is identity-first: the registry's keyed lookup takes that key
//! and a closure that yields the `Soc`, called only on a miss, by the
//! build's leader. The server keys a named SOC by its memoised identity
//! (rendered once per process), so a warm named frame neither regenerates
//! nor re-renders its SOC; an inline frame renders its parsed SOC once.
//! [`SessionRegistry::get_or_build`] is that lookup keyed by rendering
//! the given `Soc`.
//!
//! Cold builds are *coalesced*, not serialised: the registry lock is
//! released for the whole cold build
//! ([`EngineBuilder::try_build`](crate::engine::EngineBuilder::try_build)),
//! and the service's one leader/waiter flight (`service::flight`) keeps
//! duplicate builders of one SOC behind a single leader while distinct
//! SOCs build concurrently. One slow cold build therefore never blocks a
//! warm hit, and a failing or panicking leader releases its waiters to
//! retry. Recency and the memory charge live in the service's one
//! [`Lru`].

use crate::engine::Engine;
use crate::error::OptimizeError;
use crate::service::cache::{SessionPointMemo, SolutionCache};
use crate::service::faults::{FaultPlan, Stage};
use crate::service::flight::Flight;
use crate::service::lru::Lru;
use crate::service::ContentKey;
use soctest_soc_model::writer::write_soc;
use soctest_soc_model::Soc;
use soctest_tam::RowStore;
use std::sync::Arc;

/// Registry counters, exposed for the service's `Bye` statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RegistryStats {
    /// Requests that found their session resident.
    pub hits: u64,
    /// Requests that had to build a session.
    pub misses: u64,
    /// Sessions built (equals `misses`; kept separate for clarity).
    pub created: u64,
    /// Sessions evicted by the LRU / memory cap.
    pub evictions: u64,
    /// Currently charged bytes across all resident sessions.
    pub current_bytes: u64,
    /// Requests that blocked at least once on an identical in-flight
    /// cold build instead of starting their own.
    pub coalesced_builds: u64,
}

/// A successful [`SessionRegistry::get_or_build`]: the engine to run on,
/// whether it was already warm, and the key for the post-run
/// [`SessionRegistry::reassess`].
#[derive(Debug, Clone)]
pub struct SessionHandle {
    /// The (shared) engine session.
    pub engine: Arc<Engine>,
    /// `true` when the session was already resident.
    pub warm: bool,
    /// The session's content-hash key.
    pub key: u64,
    /// The canonical `.soc` text behind `key` — the collision-proof half
    /// of the session identity, which [`SessionRegistry::reassess`]
    /// matches alongside the hash.
    pub canonical: Arc<str>,
}

/// An LRU of warm [`Engine`] sessions keyed by SOC content hash, bounded
/// by a session count and a memory cap. See the [module docs](self).
#[derive(Debug)]
pub struct SessionRegistry {
    /// The resident sessions and counters, under the cold-build flight.
    flight: Flight<ContentKey, RegistryInner>,
    max_sessions: usize,
    max_table_bytes: u64,
    /// When set, every built engine shares this row store, so module
    /// time rows survive session eviction and are shared across SOCs
    /// with equal-shaped modules.
    row_store: Option<Arc<RowStore>>,
    /// When set, every built engine gets a point-level memo view of this
    /// cache bound to its SOC hash, so sweep points and plain requests
    /// share one `(soc, canonical config)` namespace.
    solution_cache: Option<Arc<SolutionCache>>,
    /// The armed fault plan ([`Stage::Build`] fires on the cold-build
    /// path); empty in production.
    faults: FaultPlan,
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// Warm engines, charged their last-assessed
    /// [`Engine::table_memory_bytes`].
    slots: Lru<ContentKey, Arc<Engine>>,
    stats: RegistryStats,
}

impl SessionRegistry {
    /// An empty registry holding at most `max_sessions` sessions and at
    /// most `max_table_bytes` of charged table memory (both clamped to at
    /// least one session).
    pub fn new(max_sessions: usize, max_table_bytes: u64) -> Self {
        SessionRegistry {
            flight: Flight::new(RegistryInner::default()),
            max_sessions: max_sessions.max(1),
            max_table_bytes,
            row_store: None,
            solution_cache: None,
            faults: FaultPlan::default(),
        }
    }

    /// Arms `faults` on this registry's cold-build path
    /// ([`Stage::Build`] fires with the SOC name as the pseudo request
    /// id, after the in-flight marker is planted and the lock released).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Gives every engine built by this registry a point-level memo view
    /// of `cache` bound to its SOC hash (see
    /// [`crate::engine::EngineBuilder::point_memo`]): sweep points and
    /// plain requests then share one `(soc, canonical config)` namespace.
    #[must_use]
    pub fn with_solution_cache(mut self, cache: Arc<SolutionCache>) -> Self {
        self.solution_cache = Some(cache);
        self
    }

    /// Like [`SessionRegistry::new`], but every built engine shares
    /// `store` for its module time rows (see
    /// [`crate::engine::EngineBuilder::row_store`]): evicting and
    /// rebuilding a session no longer loses its computed cells.
    pub fn with_row_store(max_sessions: usize, max_table_bytes: u64, store: Arc<RowStore>) -> Self {
        SessionRegistry {
            row_store: Some(store),
            ..SessionRegistry::new(max_sessions, max_table_bytes)
        }
    }

    /// Returns the warm session for `soc`'s content, building (and
    /// admitting) one if absent: the registry's keyed lookup, keyed by
    /// the canonical `.soc` rendering.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::InvalidSoc`] when a fresh build is needed and the
    /// SOC fails validation (via [`crate::engine::EngineBuilder::try_build`]) —
    /// nothing is admitted in that case.
    pub fn get_or_build(&self, soc: &Soc) -> Result<SessionHandle, OptimizeError> {
        self.lookup(ContentKey::new(write_soc(soc)), || Arc::new(soc.clone()))
    }

    /// Returns the warm session keyed `key` (a SOC's canonical `.soc`
    /// text), building and admitting one from `soc()` if absent. The SOC
    /// is asked for only on that miss, by the one caller that leads the
    /// build. Eviction runs after an admission.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::InvalidSoc`] when a fresh build is needed and the
    /// SOC fails validation (via [`crate::engine::EngineBuilder::try_build`]) —
    /// nothing is admitted in that case.
    pub(crate) fn lookup(
        &self,
        key: ContentKey,
        soc: impl FnOnce() -> Arc<Soc>,
    ) -> Result<SessionHandle, OptimizeError> {
        let mut waited = false;
        let mut inner = self.flight.lock();
        loop {
            // A waiter that wakes to find the leader's slot counts as a
            // plain hit — same observable outcome as a serialised build.
            if let Some(engine) = inner.slots.get(&key) {
                let engine = Arc::clone(engine);
                inner.stats.hits += 1;
                return Ok(SessionHandle {
                    engine,
                    warm: true,
                    key: key.hash,
                    canonical: key.canonical,
                });
            }

            if inner.in_flight(&key) {
                // A failed leader leaves no slot, so the next waiter
                // through becomes the new leader.
                if !waited {
                    waited = true;
                    inner.stats.coalesced_builds += 1;
                }
                inner = self.flight.wait(inner);
                continue;
            }

            inner.stats.misses += 1;
            // The lead guard clears the marker and wakes waiters on the
            // error return below and on unwind alike.
            let _lead = self.flight.lead(inner, key.clone());
            let engine = Arc::new(self.build_engine(soc(), key.hash)?);
            let bytes = engine.table_memory_bytes();
            let mut inner = self.flight.lock();
            inner.stats.created += 1;
            inner.slots.insert(key.clone(), Arc::clone(&engine), bytes);
            inner.stats.evictions += inner
                .slots
                .evict_over(self.max_sessions, self.max_table_bytes);
            drop(inner);
            return Ok(SessionHandle {
                engine,
                warm: false,
                key: key.hash,
                canonical: key.canonical,
            });
        }
    }

    /// The lock-free part of a cold build: fire the [`Stage::Build`]
    /// fault (keyed by SOC name), then run [`Engine::try_build`] wired
    /// to the shared row store and solution cache.
    fn build_engine(&self, soc: Arc<Soc>, hash: u64) -> Result<Engine, OptimizeError> {
        self.faults.fire(Stage::Build, soc.name());
        let mut builder = Engine::builder_arc(soc);
        if let Some(store) = &self.row_store {
            builder = builder.row_store(Arc::clone(store));
        }
        if let Some(cache) = &self.solution_cache {
            builder = builder.point_memo(Arc::new(SessionPointMemo::new(Arc::clone(cache), hash)));
        }
        builder.try_build()
    }

    /// Re-assesses a session's memory charge after a request ran (its
    /// table may have grown or been rebuilt wider) and re-applies the
    /// caps, without touching the session's recency. A no-op for
    /// sessions already evicted. Matches the full `(hash, canonical)`
    /// key — on an FNV-1a collision the charge must land on the session
    /// that actually ran, not a hash twin.
    pub fn reassess(&self, key: u64, canonical: &str) {
        let key = ContentKey {
            hash: key,
            canonical: canonical.into(),
        };
        let mut inner = self.flight.lock();
        if let Some(bytes) = inner
            .slots
            .peek(&key)
            .map(|engine| engine.table_memory_bytes())
        {
            inner.slots.recharge(&key, bytes);
        }
        inner.stats.evictions += inner
            .slots
            .evict_over(self.max_sessions, self.max_table_bytes);
    }

    /// Current counters.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.flight.lock();
        let mut stats = inner.stats;
        stats.current_bytes = inner.slots.bytes();
        stats
    }

    /// Number of resident sessions.
    pub fn len(&self) -> usize {
        self.flight.lock().slots.len()
    }

    /// Whether no session is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_soc_model::benchmarks::{d695, p22810};
    use soctest_soc_model::{Module, Soc};
    use soctest_tam::fnv1a64;
    use std::time::Duration;

    #[test]
    fn same_content_shares_a_session_across_spellings() {
        let registry = SessionRegistry::new(4, u64::MAX);
        let first = registry.get_or_build(&d695()).unwrap();
        assert!(!first.warm);
        // A re-parsed copy has identical canonical text.
        let reparsed =
            soctest_soc_model::parser::parse_soc(&write_soc(&d695())).expect("round trip");
        let second = registry.get_or_build(&reparsed).unwrap();
        assert!(second.warm);
        assert!(Arc::ptr_eq(&first.engine, &second.engine));
        assert_eq!(registry.len(), 1);
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.created), (1, 1, 1));
    }

    #[test]
    fn warm_keyed_lookup_never_asks_for_the_soc() {
        let registry = SessionRegistry::new(4, u64::MAX);
        let key = ContentKey::new(write_soc(&d695()));
        let cold = registry.lookup(key.clone(), || Arc::new(d695())).unwrap();
        assert!(!cold.warm);
        let warm = registry
            .lookup(key, || panic!("a warm lookup must not build the SOC"))
            .unwrap();
        assert!(warm.warm);
        assert!(Arc::ptr_eq(&cold.engine, &warm.engine));
        // The by-`Soc` wrapper lands on the same session.
        assert!(registry.get_or_build(&d695()).unwrap().warm);
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.created), (2, 1, 1));
    }

    #[test]
    fn session_cap_evicts_least_recently_used() {
        let registry = SessionRegistry::new(2, u64::MAX);
        registry.get_or_build(&d695()).unwrap(); // [d695]
        registry.get_or_build(&p22810()).unwrap(); // [d695, p22810]
        assert!(registry.get_or_build(&d695()).unwrap().warm); // [p22810, d695]
        let mut third = Soc::new("third");
        third.push_module(
            Module::builder("m")
                .patterns(3)
                .inputs(2)
                .outputs(2)
                .build(),
        );
        registry.get_or_build(&third).unwrap(); // evicts p22810
        assert_eq!(registry.len(), 2);
        assert!(registry.get_or_build(&d695()).unwrap().warm);
        assert!(!registry.get_or_build(&p22810()).unwrap().warm);
        assert!(registry.stats().evictions >= 1);
    }

    #[test]
    fn memory_cap_keeps_at_most_the_hottest_session() {
        let registry = SessionRegistry::new(8, 1); // 1 byte: everything is oversized
        assert!(!registry.get_or_build(&d695()).unwrap().warm);
        // The single oversized session stays resident (never evict the
        // hottest slot) — so a re-request is warm...
        assert!(registry.get_or_build(&d695()).unwrap().warm);
        // ...but admitting a second SOC evicts the first.
        assert!(!registry.get_or_build(&p22810()).unwrap().warm);
        assert_eq!(registry.len(), 1);
        assert!(!registry.get_or_build(&d695()).unwrap().warm);
    }

    #[test]
    fn invalid_soc_is_rejected_and_not_admitted() {
        let registry = SessionRegistry::new(4, u64::MAX);
        let err = registry.get_or_build(&Soc::new("empty")).unwrap_err();
        assert!(matches!(err, OptimizeError::InvalidSoc { .. }));
        assert!(registry.is_empty());
        let stats = registry.stats();
        assert_eq!(stats.created, 0);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn reassess_recharges_grown_tables() {
        let registry = SessionRegistry::new(4, u64::MAX);
        let handle = registry.get_or_build(&d695()).unwrap();
        let before = registry.stats().current_bytes;
        // Widen the table by serving a request.
        use crate::engine::OptimizeRequest;
        use crate::problem::OptimizerConfig;
        use soctest_ate::{AteSpec, ProbeStation, TestCell};
        let cell = TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        handle
            .engine
            .run(&OptimizeRequest::new(OptimizerConfig::new(cell)))
            .unwrap();
        registry.reassess(handle.key, &handle.canonical);
        assert!(registry.stats().current_bytes > before);
    }

    #[test]
    fn reassess_matches_the_full_key_not_just_the_hash() {
        // Force a hash collision by inserting two slots under the same
        // fake hash with different canonical texts: reassessing one must
        // not recharge (or evict through) the other.
        let registry = SessionRegistry::new(4, u64::MAX);
        // Two *instances* (the SOC content is irrelevant here — the slot
        // keys are faked below, only the tables' charges matter).
        let engine_a = Arc::new(Engine::builder(&d695()).try_build().unwrap());
        let engine_b = Arc::new(Engine::builder(&d695()).try_build().unwrap());
        {
            let mut inner = registry.flight.lock();
            let key = |canonical: &str| ContentKey {
                hash: 42,
                canonical: canonical.into(),
            };
            inner.slots.insert(key("a"), Arc::clone(&engine_a), 7);
            inner.slots.insert(key("b"), Arc::clone(&engine_b), 7);
        }
        // Widen b's table by serving a request on it.
        use crate::engine::OptimizeRequest;
        use crate::problem::OptimizerConfig;
        use soctest_ate::{AteSpec, ProbeStation, TestCell};
        let cell = TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        engine_b
            .run(&OptimizeRequest::new(OptimizerConfig::new(cell)))
            .unwrap();
        registry.reassess(42, "b");
        let inner = registry.flight.lock();
        let charge = |canonical: &str| {
            inner
                .slots
                .iter()
                .find(|(key, _, _)| key.canonical.as_ref() == canonical)
                .map(|(_, _, bytes)| bytes)
                .unwrap()
        };
        assert_eq!(charge("a"), 7, "hash twin must keep its stale charge");
        assert!(charge("b") > 7, "the session that ran must be recharged");
    }

    #[test]
    fn concurrent_cold_builds_of_distinct_socs_overlap() {
        use std::time::Instant;
        let plan = FaultPlan::parse("build:delay:600").unwrap();
        let registry = Arc::new(SessionRegistry::new(4, u64::MAX).with_faults(plan));
        let start = Instant::now();
        std::thread::scope(|scope| {
            let r1 = Arc::clone(&registry);
            let r2 = Arc::clone(&registry);
            let a = scope.spawn(move || r1.get_or_build(&d695()).unwrap());
            let b = scope.spawn(move || r2.get_or_build(&p22810()).unwrap());
            a.join().unwrap();
            b.join().unwrap();
        });
        let elapsed = start.elapsed();
        // Serialized builds would take >= 1200ms of injected delay alone;
        // concurrent ones pay it once (plus real build time).
        assert!(
            elapsed < Duration::from_millis(1100),
            "distinct-SOC cold builds serialized: {elapsed:?}"
        );
        let stats = registry.stats();
        assert_eq!((stats.misses, stats.created), (2, 2));
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn concurrent_same_soc_builds_coalesce_onto_one_leader() {
        let plan = FaultPlan::parse("build:delay:300").unwrap();
        let registry = Arc::new(SessionRegistry::new(4, u64::MAX).with_faults(plan));
        let (first, second) = std::thread::scope(|scope| {
            let r1 = Arc::clone(&registry);
            let r2 = Arc::clone(&registry);
            let a = scope.spawn(move || r1.get_or_build(&d695()).unwrap());
            // Give the first thread time to become the leader.
            std::thread::sleep(Duration::from_millis(50));
            let b = scope.spawn(move || r2.get_or_build(&d695()).unwrap());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&first.engine, &second.engine));
        let stats = registry.stats();
        assert_eq!((stats.misses, stats.created), (1, 1));
        assert_eq!(stats.hits, 1, "the waiter lands as a warm hit");
        assert!(stats.coalesced_builds >= 1);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn failed_build_releases_waiters_to_retry() {
        let plan = FaultPlan::parse("build:delay:200@empty").unwrap();
        let registry = Arc::new(SessionRegistry::new(4, u64::MAX).with_faults(plan));
        std::thread::scope(|scope| {
            let r1 = Arc::clone(&registry);
            let r2 = Arc::clone(&registry);
            let a = scope.spawn(move || r1.get_or_build(&Soc::new("empty")).unwrap_err());
            std::thread::sleep(Duration::from_millis(50));
            let b = scope.spawn(move || r2.get_or_build(&Soc::new("empty")).unwrap_err());
            assert!(matches!(
                a.join().unwrap(),
                OptimizeError::InvalidSoc { .. }
            ));
            assert!(matches!(
                b.join().unwrap(),
                OptimizeError::InvalidSoc { .. }
            ));
        });
        let stats = registry.stats();
        // Both callers ended up leading a (failed) build.
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.created, 0);
        assert!(registry.is_empty());
        assert!(registry.flight.is_idle());
    }

    #[test]
    fn shared_row_store_survives_eviction_and_rebuild() {
        use crate::engine::OptimizeRequest;
        use crate::problem::OptimizerConfig;
        use soctest_ate::{AteSpec, ProbeStation, TestCell};
        let store = Arc::new(RowStore::new());
        let registry = SessionRegistry::with_row_store(1, u64::MAX, Arc::clone(&store));
        let cell = TestCell::new(
            AteSpec::new(128, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        let request = OptimizeRequest::new(OptimizerConfig::new(cell));
        let first = registry.get_or_build(&d695()).unwrap();
        let expected = first.engine.run(&request).unwrap();
        let computed_cold = store.stats().cells_computed;
        assert!(computed_cold > 0);
        // Evict d695 by admitting a second SOC into the 1-session cap...
        registry.get_or_build(&p22810()).unwrap();
        // ...then rebuild it: the fresh engine pulls every cell from the
        // shared store instead of recomputing, bit-identically.
        let rebuilt = registry.get_or_build(&d695()).unwrap();
        assert!(!rebuilt.warm);
        assert_eq!(rebuilt.engine.run(&request).unwrap(), expected);
        assert_eq!(store.stats().cells_computed, computed_cold);
    }

    #[test]
    fn fnv_hash_is_stable_and_content_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"soc a\n"), fnv1a64(b"soc b\n"));
    }
}
