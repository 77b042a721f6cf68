//! Model-based property test of the service's `Lru`: random sequences of
//! insert, get, peek, contains, recharge and evict_over must behave
//! exactly like a plain `Vec` kept coldest first, where a touch is
//! `position` + `remove` + `push` and eviction removes index 0 — the
//! recency semantics the solution cache and session registry are pinned
//! to. After every step the coldest-first order, the byte total and
//! every returned value (evictions included) must agree.

use proptest::prelude::*;
use soctest_multisite::service::lru::Lru;
use std::hash::{Hash, Hasher};

/// A key whose hash collides with every other key of the same parity,
/// so equality, not the hash, must tell entries apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Twin(u8);

impl Hash for Twin {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.0 % 2);
    }
}

/// The reference: `(key, value, charge)`, index 0 the coldest.
#[derive(Default)]
struct Model(Vec<(u8, u32, u64)>);

impl Model {
    fn position(&self, key: u8) -> Option<usize> {
        self.0.iter().position(|&(k, _, _)| k == key)
    }

    fn insert(&mut self, key: u8, value: u32, bytes: u64) {
        if let Some(position) = self.position(key) {
            self.0.remove(position);
        }
        self.0.push((key, value, bytes));
    }

    fn get(&mut self, key: u8) -> Option<u32> {
        let entry = self.0.remove(self.position(key)?);
        self.0.push(entry);
        Some(entry.1)
    }

    fn peek(&self, key: u8) -> Option<u32> {
        self.position(key).map(|position| self.0[position].1)
    }

    fn recharge(&mut self, key: u8, bytes: u64) {
        if let Some(position) = self.position(key) {
            self.0[position].2 = bytes;
        }
    }

    fn bytes(&self) -> u64 {
        self.0.iter().map(|&(_, _, bytes)| bytes).sum()
    }

    fn evict_over(&mut self, max_entries: usize, max_bytes: u64) -> u64 {
        let mut evicted = 0;
        while (self.0.len() > max_entries || self.bytes() > max_bytes) && self.0.len() > 1 {
            self.0.remove(0);
            evicted += 1;
        }
        evicted
    }
}

/// One step: `(operation, key, value, charge or byte cap, entry cap)`.
type Step = (u8, u8, u32, u64, usize);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..6, 0u8..8, 0u32..1000, 0u64..120, 1usize..6), 0..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lru_matches_the_vec_model(steps in arb_steps()) {
        let mut lru: Lru<Twin, u32> = Lru::default();
        let mut model = Model::default();
        for (index, &(op, key, value, bytes, max_entries)) in steps.iter().enumerate() {
            match op {
                0 => {
                    lru.insert(Twin(key), value, bytes);
                    model.insert(key, value, bytes);
                }
                1 => prop_assert_eq!(lru.get(&Twin(key)).copied(), model.get(key), "get, step {}", index),
                2 => prop_assert_eq!(lru.peek(&Twin(key)).copied(), model.peek(key), "peek, step {}", index),
                3 => prop_assert_eq!(lru.contains(&Twin(key)), model.position(key).is_some(), "contains, step {}", index),
                4 => {
                    lru.recharge(&Twin(key), bytes);
                    model.recharge(key, bytes);
                }
                _ => {
                    // `bytes` doubles as the byte cap, so both caps bind.
                    let max_bytes = bytes * 2;
                    prop_assert_eq!(
                        lru.evict_over(max_entries, max_bytes),
                        model.evict_over(max_entries, max_bytes),
                        "evictions, step {}", index
                    );
                }
            }
            let order: Vec<(u8, u32, u64)> =
                lru.iter().map(|(key, &value, bytes)| (key.0, value, bytes)).collect();
            prop_assert_eq!(&order, &model.0, "coldest-first order, step {}", index);
            prop_assert_eq!(lru.bytes(), model.bytes(), "byte total, step {}", index);
            prop_assert_eq!(lru.len(), model.0.len(), "length, step {}", index);
        }
    }
}
