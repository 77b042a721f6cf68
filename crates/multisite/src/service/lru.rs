//! The one bounded least-recently-used map behind the service's caches.
//!
//! An [`Lru`] is a hash index plus a recency order with a single
//! byte-accounting hook: every entry carries the byte charge its owner
//! gave it, and the map keeps the running total. Eviction is the owner's
//! call ([`Lru::evict_over`]), so one policy — coldest first, always
//! sparing the hottest entry — serves the solution cache's two indexes
//! and the session registry alike.
//!
//! The recency order is a `BTreeMap` from a private touch clock to the
//! key, so a hit costs a hash lookup and two logarithmic order updates
//! instead of a scan of the resident list. Keys are stored twice (index
//! and order), so owners use keys whose clone is cheap (`Arc<str>` text
//! behind precomputed hashes).

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A recency-ordered map with a running byte total. See the
/// [module docs](self).
#[derive(Debug)]
pub struct Lru<K, V> {
    index: HashMap<K, Slot<V>>,
    /// Touch tick → key; the first entry is the coldest.
    order: BTreeMap<u64, K>,
    /// The last tick handed out.
    clock: u64,
    /// Sum of every resident entry's charge.
    bytes: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: u64,
    tick: u64,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            index: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            bytes: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Sum of the resident entries' charges.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether `key` is resident. Does not touch it.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The value under `key`, without touching it.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|slot| &slot.value)
    }

    /// The value under `key`, touched hottest.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = self.index.get_mut(key)?;
        let key = self
            .order
            .remove(&slot.tick)
            .expect("every slot is ordered");
        self.clock += 1;
        slot.tick = self.clock;
        self.order.insert(self.clock, key);
        Some(&slot.value)
    }

    /// Admits `value` under `key` with a charge of `bytes`, hottest. A
    /// resident entry under an equal key is replaced, not stacked.
    pub fn insert(&mut self, key: K, value: V, bytes: u64) {
        self.clock += 1;
        let slot = Slot {
            value,
            bytes,
            tick: self.clock,
        };
        if let Some(old) = self.index.insert(key.clone(), slot) {
            self.order.remove(&old.tick);
            self.bytes -= old.bytes;
        }
        self.order.insert(self.clock, key);
        self.bytes += bytes;
    }

    /// Re-charges a resident entry to `bytes` without touching it; a
    /// no-op for an absent key.
    pub fn recharge(&mut self, key: &K, bytes: u64) {
        if let Some(slot) = self.index.get_mut(key) {
            self.bytes = self.bytes - slot.bytes + bytes;
            slot.bytes = bytes;
        }
    }

    /// Evicts coldest first while more than `max_entries` entries or
    /// more than `max_bytes` are resident, always sparing the hottest
    /// entry. Returns the number evicted.
    pub fn evict_over(&mut self, max_entries: usize, max_bytes: u64) -> u64 {
        let mut evicted = 0;
        while (self.index.len() > max_entries || self.bytes > max_bytes) && self.index.len() > 1 {
            let (_, key) = self.order.pop_first().expect("a non-empty map is ordered");
            let slot = self
                .index
                .remove(&key)
                .expect("every ordered key is indexed");
            self.bytes -= slot.bytes;
            evicted += 1;
        }
        evicted
    }

    /// Every entry as `(key, value, charge)`, coldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V, u64)> {
        self.order.values().map(|key| {
            let slot = &self.index[key];
            (key, &slot.value, slot.bytes)
        })
    }
}
