//! The one leader/waiter flight behind the service's coalescing.
//!
//! A [`Flight`] owns its owner's state behind a single mutex, together
//! with the set of keys some caller is currently computing. An owner
//! locks, probes its state, and on a miss asks [`Locked::in_flight`]:
//! when another caller leads the key it [waits](Flight::wait) and probes
//! again; otherwise it [leads](Flight::lead), which plants the key and
//! releases the lock. Probe, check and plant therefore share one lock
//! acquisition, so two callers can never both lead one key.
//!
//! The [`Lead`] guard removes the key and wakes every waiter when it
//! drops — on return, on error and on unwind — so a failing or panicking
//! leader never strands its waiters: they probe again, and the first to
//! find the key free becomes the next leader.

use crate::service::lock;
use std::collections::HashSet;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long a waiter sleeps between probes. Purely a latency bound on
/// rare wake-up races and on waiters that poll their own cancellation:
/// a [`Lead`] notifies the moment it ends.
const WAIT_SLICE: Duration = Duration::from_millis(25);

/// An owner's state `S` plus its in-flight keys `K`, under one mutex.
/// See the [module docs](self).
#[derive(Debug)]
pub(crate) struct Flight<K, S> {
    shared: Mutex<Shared<K, S>>,
    /// Signalled whenever a [`Lead`] ends.
    landed: Condvar,
}

#[derive(Debug)]
struct Shared<K, S> {
    in_flight: HashSet<K>,
    state: S,
}

/// The locked owner state; dereferences to `S`.
pub(crate) struct Locked<'a, K, S>(MutexGuard<'a, Shared<K, S>>);

/// A caller's lead of one key. Dropping it ends the flight.
pub(crate) struct Lead<'a, K: Hash + Eq, S> {
    flight: &'a Flight<K, S>,
    key: K,
}

impl<K: Hash + Eq, S> Flight<K, S> {
    /// A flight over `state` with no key in flight.
    pub(crate) fn new(state: S) -> Self {
        Flight {
            shared: Mutex::new(Shared {
                in_flight: HashSet::new(),
                state,
            }),
            landed: Condvar::new(),
        }
    }

    /// Locks the owner state.
    pub(crate) fn lock(&self) -> Locked<'_, K, S> {
        Locked(lock(&self.shared))
    }

    /// Releases `locked` until a lead ends (or one [`WAIT_SLICE`]
    /// passes), then re-takes it. The caller probes again afterwards.
    pub(crate) fn wait<'a>(&'a self, locked: Locked<'a, K, S>) -> Locked<'a, K, S> {
        let (guard, _) = self
            .landed
            .wait_timeout(locked.0, WAIT_SLICE)
            .unwrap_or_else(PoisonError::into_inner);
        Locked(guard)
    }

    /// Plants `key` as in flight and releases `locked`: the caller now
    /// leads `key` until the returned guard drops.
    pub(crate) fn lead<'a>(&'a self, mut locked: Locked<'a, K, S>, key: K) -> Lead<'a, K, S>
    where
        K: Clone,
    {
        locked.0.in_flight.insert(key.clone());
        Lead { flight: self, key }
    }

    /// Whether no key is in flight.
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        lock(&self.shared).in_flight.is_empty()
    }
}

impl<K: Hash + Eq, S> Locked<'_, K, S> {
    /// Whether some caller currently leads `key`.
    pub(crate) fn in_flight(&self, key: &K) -> bool {
        self.0.in_flight.contains(key)
    }
}

impl<K, S> Deref for Locked<'_, K, S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.0.state
    }
}

impl<K, S> DerefMut for Locked<'_, K, S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.0.state
    }
}

impl<K: Hash + Eq, S> Drop for Lead<'_, K, S> {
    fn drop(&mut self) {
        lock(&self.flight.shared).in_flight.remove(&self.key);
        self.flight.landed.notify_all();
    }
}
