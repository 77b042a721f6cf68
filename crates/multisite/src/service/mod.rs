//! The fault-tolerant streaming optimizer service behind the
//! `soc-serve` binary.
//!
//! Where [`crate::engine::Engine::run_batch`] answers one closed batch
//! for one SOC, this layer keeps a *persistent* server alive across many
//! SOCs and many clients' worth of requests on an NDJSON stdin/stdout
//! stream:
//!
//! * [`protocol`] — the typed wire frames ([`ClientFrame`] in,
//!   [`ServerFrame`] out), strict about unknown fields;
//! * [`registry`] — the content-hash-keyed LRU of warm [`Engine`]
//!   sessions with memory accounting ([`SessionRegistry`]);
//! * [`cancel`] — cooperative [`CancelToken`]s: `Cancel` frames and
//!   per-request deadlines observed at sweep-point *and* table-row
//!   granularity;
//! * [`cache`] — the content-addressed [`SolutionCache`]: exact-hit
//!   `(SOC, canonical request) → response` memoisation with in-flight
//!   coalescing, so identical concurrent requests share one
//!   computation;
//! * [`server`] — the [`Server`] loop itself: bounded admission with
//!   typed `Overloaded` shedding, per-request panic isolation, graceful
//!   drain with a final `Bye` statistics frame;
//! * [`transport`] — the socket front-end: a Unix-domain (or TCP)
//!   listener where every accepted connection runs the same NDJSON
//!   protocol as an independent session over one shared [`Server`] —
//!   one registry, one row store, one solution cache, one bounded
//!   admission queue drained by a shared executor pool;
//! * [`faults`] — the env-gated [`FaultPlan`] harness that injects
//!   panics, delays, and allocation pressure to prove the above;
//! * `flight` and [`lru`] — the two primitives under the registry and
//!   the cache: one leader/waiter flight that coalesces identical
//!   in-flight work, and one byte-accounted least-recently-used map.
//!
//! [`Engine`]: crate::engine::Engine

pub mod cache;
pub mod cancel;
pub mod faults;
mod flight;
pub mod lru;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod transport;

pub use cache::{
    canonical_request, CacheOutcome, SessionPointMemo, SolutionCache, SolutionCacheStats,
};
pub use cancel::CancelToken;
pub use faults::{FaultPlan, Stage, FAULTS_ENV_VAR};
pub use protocol::{
    parse_client_frame, render_server_frame, CacheStats, ClientFrame, ConnectionStats, ErrorFrame,
    ErrorKind, OptimizeFrame, Provenance, RequestStats, ResultFrame, ServerFrame, ServerStats,
    SocSpec, TraceSummary,
};
pub use registry::{RegistryStats, SessionHandle, SessionRegistry};
pub use server::{Server, ServerConfig, MAX_FRAME_BYTES, ROWS_FILE, SOLUTIONS_FILE};
pub use transport::{BoundListener, ClientStream, ListenAddr, TransportConfig, TransportStats};

use soctest_soc_model::synthetic::pnx8550_like;
use soctest_soc_model::writer::write_soc;
use soctest_soc_model::{benchmarks, Soc};
use soctest_tam::fnv1a64;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A canonical text with its precomputed FNV-1a: the identity of a
/// session's SOC and of a cached request. Hashing writes only the FNV,
/// so no lookup re-hashes the text; equality compares the full text, so
/// a hash twin is a different key.
#[derive(Debug, Clone)]
pub(crate) struct ContentKey {
    pub(crate) hash: u64,
    pub(crate) canonical: Arc<str>,
}

impl ContentKey {
    pub(crate) fn new(canonical: String) -> Self {
        ContentKey {
            hash: fnv1a64(canonical.as_bytes()),
            canonical: canonical.into(),
        }
    }
}

impl PartialEq for ContentKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.canonical == other.canonical
    }
}

impl Eq for ContentKey {}

impl Hash for ContentKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Locks `mutex`, recovering the data when a panicking thread poisoned
/// it. Service state is only mutated at points that leave it valid,
/// never across the optimizer's unwind path, so poisoning records only
/// that *some* request panicked.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Every name [`resolve_named_soc`] accepts, in the order its error
/// message lists them.
const NAMED_SOCS: [&str; 5] = ["d695", "p22810", "p34392", "p93791", "pnx8550_like"];

/// Resolves a [`SocSpec::Named`] SOC: one of the embedded ITC'02
/// benchmarks (`d695`, `p22810`, `p34392`, `p93791`) or the synthetic
/// `pnx8550_like` stand-in.
///
/// # Errors
///
/// Returns a human-readable message listing the known names.
pub fn resolve_named_soc(name: &str) -> Result<Soc, String> {
    if name == "pnx8550_like" {
        return Ok(pnx8550_like());
    }
    benchmarks::by_name(name).map_err(|err| {
        format!("unknown SOC {name:?} ({err}); known: d695, p22810, p34392, p93791, pnx8550_like")
    })
}

/// The session identity of a named SOC: its canonical `.soc` text and
/// FNV-1a, rendered once per process on first use and shared by every
/// later frame naming it. Only the [`NAMED_SOCS`] are memoised, so no
/// client can grow the memo.
///
/// # Errors
///
/// [`resolve_named_soc`]'s message for an unknown name.
pub(crate) fn named_soc_key(name: &str) -> Result<ContentKey, String> {
    static KEYS: [OnceLock<ContentKey>; NAMED_SOCS.len()] =
        [const { OnceLock::new() }; NAMED_SOCS.len()];
    let Some(index) = NAMED_SOCS.iter().position(|known| *known == name) else {
        return resolve_named_soc(name).map(|soc| ContentKey::new(write_soc(&soc)));
    };
    Ok(KEYS[index]
        .get_or_init(|| {
            let soc = resolve_named_soc(name).expect("catalogue names resolve");
            ContentKey::new(write_soc(&soc))
        })
        .clone())
}

/// One row of [`named_soc_catalogue`]: a named SOC the service can
/// resolve, with the identity the session registry would key it by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedSoc {
    /// The wire name ([`SocSpec::Named`]).
    pub name: &'static str,
    /// Number of modules in the design.
    pub modules: usize,
    /// FNV-1a 64-bit hash of the canonical `.soc` rendering — the same
    /// content hash the [`SessionRegistry`] keys warm sessions by, so
    /// two servers printing the same hash serve bit-identical designs.
    pub content_hash: u64,
}

/// The shared named-SOC catalogue behind `--list-socs` in `soc-serve`
/// and `soc-batch`: every name [`resolve_named_soc`] accepts, in the
/// order the error message documents them, with the hash the server's
/// named-SOC identity memo holds.
pub fn named_soc_catalogue() -> Vec<NamedSoc> {
    NAMED_SOCS
        .into_iter()
        .map(|name| NamedSoc {
            name,
            modules: resolve_named_soc(name)
                .expect("catalogue names resolve")
                .modules()
                .len(),
            content_hash: named_soc_key(name).expect("catalogue names resolve").hash,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_the_resolver_and_is_stable() {
        let catalogue = named_soc_catalogue();
        assert_eq!(catalogue.len(), 5);
        for entry in &catalogue {
            assert!(entry.modules > 0, "{} has modules", entry.name);
            assert_ne!(entry.content_hash, 0, "{} has a hash", entry.name);
            // The hash is the registry's identity: recomputing from a
            // fresh resolve must agree, and so must the memoised text.
            let fresh = write_soc(&resolve_named_soc(entry.name).unwrap());
            assert_eq!(entry.content_hash, fnv1a64(fresh.as_bytes()));
            let memo = named_soc_key(entry.name).unwrap();
            assert_eq!(memo.hash, entry.content_hash);
            assert_eq!(&*memo.canonical, fresh);
            // One render per process: a repeat shares the memoised text.
            let again = named_soc_key(entry.name).unwrap();
            assert!(Arc::ptr_eq(&memo.canonical, &again.canonical));
        }
        // Distinct designs, distinct identities.
        let mut hashes: Vec<u64> = catalogue.iter().map(|e| e.content_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), catalogue.len());
    }

    #[test]
    fn every_documented_name_resolves() {
        for name in ["d695", "p22810", "p34392", "p93791", "pnx8550_like"] {
            assert!(resolve_named_soc(name).is_ok(), "{name} must resolve");
        }
    }

    #[test]
    fn unknown_names_list_the_catalogue() {
        let err = resolve_named_soc("nope").unwrap_err();
        assert!(err.contains("nope"));
        assert!(err.contains("pnx8550_like"));
        assert_eq!(named_soc_key("nope").unwrap_err(), err);
    }
}
