//! DAGDA-style hierarchy-wide data management.
//!
//! The per-SeD [`DataManager`](crate::datamgr::DataManager) only knows what
//! *it* holds. This module adds the grid-wide view DIET's DAGDA provides:
//!
//! * a **replica catalog** registered at the MA — data id → the set of SeDs
//!   holding a replica, with size, checksum and last-access stamps. SeDs
//!   publish on retain, unpublish on eviction/free, and the MA drops every
//!   entry for a SeD the heartbeat monitor deregisters;
//! * a **resolver** abstraction — how an executing SeD pulls a missing
//!   `Persistent` input from the owning SeD (over TCP in production, via a
//!   shared handle in-process for tests);
//! * **locality accounting** — given a request's data-ref ids, how many
//!   bytes are already resident on a candidate SeD vs. how many it would
//!   have to pull. The `DataLocal` scheduler and the MA's `Estimate`
//!   construction feed on this.

use crate::data::DietValue;
use crate::error::DietError;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One replica's catalog record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaInfo {
    /// SeD label holding the replica.
    pub sed: String,
    /// Payload bytes of the stored value.
    pub size: u64,
    /// [`checksum`] of the stored value — lets a puller detect divergent
    /// replicas published under one id.
    pub checksum: u64,
    /// Logical catalog clock stamp of the last publish/touch.
    pub last_access: u64,
}

/// Checksum of a value's content: its kind, its name and lengths, and its
/// payload read as little-endian 64-bit words. The same on every process and
/// platform and whatever buffer backs the value; computed in place, with no
/// allocation. Two SeDs compare these sums across the wire, so the function
/// is part of the protocol: `checksum_golden_value` pins it.
pub fn checksum(value: &DietValue) -> u64 {
    match value {
        DietValue::Null => Sum::new(0),
        DietValue::ScalarI32(x) => Sum::new(1).word(*x as u32 as u64),
        DietValue::ScalarI64(x) => Sum::new(2).word(*x as u64),
        DietValue::ScalarF64(x) => Sum::new(3).word(x.to_bits()),
        DietValue::ScalarChar(x) => Sum::new(4).word(*x as u64),
        DietValue::VectorF64(xs) => Sum::new(5)
            .word(xs.len() as u64)
            .words::<f64, 1>(xs, |x| x[0].to_bits()),
        // Two to a word, as their little-endian bytes would lie.
        DietValue::VectorI32(xs) => Sum::new(6).word(xs.len() as u64).words::<i32, 2>(xs, |p| {
            let hi = p.get(1).map_or(0, |hi| (*hi as u32 as u64) << 32);
            p[0] as u32 as u64 | hi
        }),
        DietValue::Str(x) => Sum::new(7).bytes(x.as_bytes()),
        DietValue::File { name, data } => Sum::new(8).bytes(name.as_bytes()).bytes(data),
        DietValue::DataRef { id } => Sum::new(9).bytes(id.as_bytes()),
    }
    .finish()
}

/// Running state of [`checksum`]: four independent lanes, so a long payload
/// is not one serial chain of multiplies.
struct Sum([u64; 4]);

/// One lane step. Xor, multiplication by an odd constant and rotation are
/// each invertible, so a lane that absorbed a different word ends different.
#[inline(always)]
fn lane_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

impl Sum {
    fn new(kind: u64) -> Sum {
        Sum([
            0x243F_6A88_85A3_08D3,
            0x1319_8A2E_0370_7344,
            0xA409_3822_299F_31D0,
            0x082E_FA98_EC4E_6C89,
        ])
        .word(kind)
    }

    /// Absorb one header word (kind, length, scalar).
    fn word(mut self, w: u64) -> Sum {
        self.0[0] = lane_step(self.0[0], w);
        self
    }

    /// Absorb `items` as 64-bit words of `N` items each, four words at a
    /// time, one to a lane. `word` sees fewer than `N` items only for the
    /// last word; the caller has absorbed the length, so zero-extending it
    /// is unambiguous.
    fn words<T, const N: usize>(mut self, items: &[T], word: impl Fn(&[T]) -> u64) -> Sum {
        let mut blocks = items.chunks_exact(4 * N);
        for block in &mut blocks {
            for (lane, w) in self.0.iter_mut().zip(block.chunks_exact(N)) {
                *lane = lane_step(*lane, word(w));
            }
        }
        for (lane, w) in self.0.iter_mut().zip(blocks.remainder().chunks(N)) {
            *lane = lane_step(*lane, word(w));
        }
        self
    }

    /// Absorb a byte string: its length, then its little-endian words.
    fn bytes(self, b: &[u8]) -> Sum {
        self.word(b.len() as u64).words::<u8, 8>(b, |w| {
            let mut le = [0u8; 8];
            le[..w.len()].copy_from_slice(w);
            u64::from_le_bytes(le)
        })
    }

    fn finish(self) -> u64 {
        let [a, b, c, d] = self.0;
        let mut h = lane_step(lane_step(lane_step(a, b), c), d);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }
}

/// The hierarchy-wide replica catalog (lives at the MA; shared by Arc with
/// every SeD that participates).
#[derive(Debug, Default)]
pub struct ReplicaCatalog {
    /// id → replicas, keyed by SeD label.
    entries: RwLock<HashMap<String, Vec<ReplicaInfo>>>,
    clock: AtomicU64,
    dropped_for_death: AtomicU64,
}

impl ReplicaCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `sed` now holds `id`. Replaces any previous record for
    /// the same (id, sed) pair.
    pub fn publish(&self, id: &str, sed: &str, size: u64, checksum: u64) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut w = self.entries.write();
        let reps = w.entry(id.to_string()).or_default();
        reps.retain(|r| r.sed != sed);
        reps.push(ReplicaInfo {
            sed: sed.to_string(),
            size,
            checksum,
            last_access: stamp,
        });
    }

    /// Record that `sed` no longer holds `id` (eviction, free, migration).
    pub fn unpublish(&self, id: &str, sed: &str) {
        let mut w = self.entries.write();
        if let Some(reps) = w.get_mut(id) {
            reps.retain(|r| r.sed != sed);
            if reps.is_empty() {
                w.remove(id);
            }
        }
    }

    /// Drop every replica a dead SeD held (heartbeat deregistration path).
    /// Returns how many records were removed.
    pub fn drop_sed(&self, sed: &str) -> usize {
        let mut dropped = 0;
        let mut w = self.entries.write();
        w.retain(|_, reps| {
            let before = reps.len();
            reps.retain(|r| r.sed != sed);
            dropped += before - reps.len();
            !reps.is_empty()
        });
        self.dropped_for_death
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// The best replica to pull from: most recently touched, ties broken by
    /// label for determinism.
    pub fn locate(&self, id: &str) -> Option<ReplicaInfo> {
        let r = self.entries.read();
        r.get(id)?
            .iter()
            .max_by(|a, b| {
                a.last_access
                    .cmp(&b.last_access)
                    .then_with(|| b.sed.cmp(&a.sed))
            })
            .cloned()
    }

    /// All replicas of `id`, sorted by SeD label.
    pub fn replicas(&self, id: &str) -> Vec<ReplicaInfo> {
        let mut v = self.entries.read().get(id).cloned().unwrap_or_default();
        v.sort_by(|a, b| a.sed.cmp(&b.sed));
        v
    }

    /// SeD labels holding `id`, sorted.
    pub fn holders(&self, id: &str) -> Vec<String> {
        self.replicas(id).into_iter().map(|r| r.sed).collect()
    }

    /// Payload size of `id` if any replica is catalogued.
    pub fn size_of(&self, id: &str) -> Option<u64> {
        self.entries.read().get(id)?.first().map(|r| r.size)
    }

    /// Locality split for a candidate SeD: of the given data ids, how many
    /// bytes are already on `sed` (`local`) vs. resident elsewhere on the
    /// grid (`miss` — the transfer the SeD would have to do). Ids unknown to
    /// the catalog count as neither: the client ships those inline whoever
    /// wins, so they do not differentiate candidates.
    pub fn locality(&self, sed: &str, ids: &[String]) -> (u64, u64) {
        let r = self.entries.read();
        let (mut local, mut miss) = (0u64, 0u64);
        for id in ids {
            if let Some(reps) = r.get(id) {
                if let Some(rep) = reps.iter().find(|rep| rep.sed == sed) {
                    local += rep.size;
                } else if let Some(rep) = reps.first() {
                    miss += rep.size;
                }
            }
        }
        (local, miss)
    }

    /// Number of distinct data ids catalogued.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Records dropped because their SeD died.
    pub fn dropped_for_death(&self) -> u64 {
        self.dropped_for_death.load(Ordering::Relaxed)
    }

    /// Sorted ids currently catalogued (diagnostics).
    pub fn ids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.entries.read().keys().cloned().collect();
        v.sort();
        v
    }
}

/// How an executing SeD fetches a data id it does not hold. Production uses
/// the TCP pool (SeD-to-SeD pull); tests can resolve through shared
/// in-process handles.
pub trait DataResolver: Send + Sync {
    /// Fetch `id` from the SeD labelled `sed`, returning the value and its
    /// persistence mode.
    fn fetch(
        &self,
        sed: &str,
        id: &str,
    ) -> Result<(DietValue, crate::data::Persistence), DietError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_message, encode_message, Message};
    use crate::data::DietValue;
    use bytes::Bytes;

    #[test]
    fn publish_locate_unpublish() {
        let cat = ReplicaCatalog::new();
        assert!(cat.is_empty());
        cat.publish("ic", "sedA", 100, 7);
        cat.publish("ic", "sedB", 100, 7);
        // sedB published later → preferred source.
        assert_eq!(cat.locate("ic").unwrap().sed, "sedB");
        assert_eq!(cat.holders("ic"), vec!["sedA", "sedB"]);
        cat.unpublish("ic", "sedB");
        assert_eq!(cat.locate("ic").unwrap().sed, "sedA");
        cat.unpublish("ic", "sedA");
        assert!(cat.locate("ic").is_none());
        assert!(cat.is_empty(), "empty id sets are pruned");
    }

    #[test]
    fn republish_replaces_not_duplicates() {
        let cat = ReplicaCatalog::new();
        cat.publish("x", "sedA", 10, 1);
        cat.publish("x", "sedA", 20, 2);
        let reps = cat.replicas("x");
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].size, 20);
        assert_eq!(cat.size_of("x"), Some(20));
    }

    #[test]
    fn drop_sed_clears_every_record() {
        let cat = ReplicaCatalog::new();
        cat.publish("a", "dead", 1, 0);
        cat.publish("b", "dead", 2, 0);
        cat.publish("b", "alive", 2, 0);
        assert_eq!(cat.drop_sed("dead"), 2);
        assert_eq!(cat.dropped_for_death(), 2);
        assert!(cat.locate("a").is_none());
        assert_eq!(cat.holders("b"), vec!["alive"]);
    }

    #[test]
    fn locality_splits_local_and_miss_bytes() {
        let cat = ReplicaCatalog::new();
        cat.publish("big", "sedA", 1000, 0);
        cat.publish("small", "sedB", 10, 0);
        let ids = vec!["big".to_string(), "small".to_string(), "ghost".to_string()];
        assert_eq!(cat.locality("sedA", &ids), (1000, 10));
        assert_eq!(cat.locality("sedB", &ids), (10, 1000));
        // A SeD holding nothing: everything catalogued is a miss; the
        // unknown id counts for no one.
        assert_eq!(cat.locality("sedC", &ids), (0, 1010));
    }

    #[test]
    fn checksum_distinguishes_values_and_is_stable() {
        let a = DietValue::vec_f64(vec![1.0, 2.0]);
        let b = DietValue::vec_f64(vec![1.0, 2.5]);
        assert_eq!(checksum(&a), checksum(&a.clone()));
        assert_ne!(checksum(&a), checksum(&b));
        assert_ne!(
            checksum(&DietValue::Str("x".into())),
            checksum(&DietValue::ScalarChar(b'x'))
        );
    }

    fn file(name: &str, data: impl Into<Bytes>) -> DietValue {
        DietValue::File {
            name: name.into(),
            data: data.into(),
        }
    }

    /// 32 bytes to a round of the four lanes, plus a 5-byte sub-word tail.
    fn pattern() -> Vec<u8> {
        (0..3 * 32 + 5).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn checksum_ignores_what_backs_the_value() {
        let data = pattern();
        let owned = file("ic", data.clone());
        // An odd offset into a larger buffer: no word of it is aligned.
        let mut padded = vec![0xEE; 3];
        padded.extend_from_slice(&data);
        padded.push(0xEE);
        let sliced = file("ic", Bytes::from(padded).slice(3..3 + data.len()));
        assert_eq!(checksum(&owned), checksum(&sliced));

        // Decoded from the wire, every heavy kind sums as the original did.
        for v in [
            owned,
            DietValue::vec_f64(vec![0.5, -1.25, f64::MAX, 3.0, 1e-300]),
            DietValue::vec_i32(vec![1, -2, 3, i32::MIN, 5, 6, 7, 8, 9]),
            DietValue::Str("paramstring".into()),
        ] {
            let frame = encode_message(&Message::PutData {
                request_id: 1,
                id: "x".into(),
                mode: crate::data::Persistence::Persistent,
                value: v.clone(),
            });
            let Ok(Message::PutData { value: decoded, .. }) = decode_message(frame) else {
                panic!("PutData did not round-trip");
            };
            assert_eq!(checksum(&v), checksum(&decoded), "{}", v.type_name());
        }
    }

    #[test]
    fn checksum_sees_every_bit_position_class() {
        let data = pattern();
        let base = checksum(&file("ic", data.clone()));
        // The first byte, one byte in each lane of a middle round, every
        // byte of the sub-word tail, and the last byte.
        let tail = 3 * 32..data.len();
        let positions = [0, 32, 40, 48, 56].into_iter().chain(tail);
        for at in positions {
            for bit in [0, 7] {
                let mut flipped = data.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(base, checksum(&file("ic", flipped)), "byte {at} bit {bit}");
            }
        }
        let mut longer = data.clone();
        longer.push(0);
        assert_ne!(base, checksum(&file("ic", longer)), "appended zero byte");
        assert_ne!(base, checksum(&file("id", data)), "file name");
    }

    #[test]
    fn checksum_tells_kinds_with_equal_bytes_apart() {
        let xs = [1.5f64, -2.0, 1e9, 0.0];
        let le: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        let ints: Vec<i32> = le
            .chunks_exact(4)
            .map(|w| i32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        let sums = [
            checksum(&file("", le)),
            checksum(&DietValue::vec_f64(xs.to_vec())),
            checksum(&DietValue::vec_i32(ints)),
        ];
        assert_ne!(sums[0], sums[1]);
        assert_ne!(sums[0], sums[2]);
        assert_ne!(sums[1], sums[2]);
    }

    #[test]
    fn checksum_golden_value() {
        // SeDs of different builds verify each other's replicas against
        // this function: changing what it returns is a protocol change.
        assert_eq!(
            checksum(&file("golden.bin", pattern())),
            0x18CD_FD75_2EE1_7AC7
        );
        assert_eq!(
            checksum(&DietValue::vec_i32(vec![1, 2, 3])),
            0x9DC0_85C3_7549_C401
        );
    }
}
