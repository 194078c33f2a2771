//! Server-side data management.
//!
//! DIET's data manager (DTM/DAGDA lineage) keeps `PERSISTENT` and `STICKY`
//! arguments on the server between calls, so a client can reference data by
//! id instead of re-shipping it. `VOLATILE` data — everything in the paper's
//! `ramsesZoom2` — is freed right after the solve.
//!
//! The store is bounded: `with_capacity(bytes)` caps resident payload bytes
//! and evicts least-recently-used `Persistent` items when a retain pushes
//! past the cap. `Sticky` data is pinned — never evicted — so pinned bytes
//! can keep the store over budget; the bound is enforced against evictable
//! items only. Every departure (eviction, `free`, migration) fires the
//! evict hook so a replica catalog can drop the stale location.

use crate::data::{DietValue, Persistence};
use crate::error::DietError;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A stored item. Hit/recency counters are atomics so `get` works under the
/// read lock: concurrent readers never serialize on the map.
#[derive(Debug)]
struct Stored {
    value: DietValue,
    mode: Persistence,
    /// Access counter (diagnostics).
    hits: AtomicU64,
    /// Logical clock stamp of the last access (LRU ordering).
    last_access: AtomicU64,
}

/// Callback fired (outside the store lock) whenever an id leaves the store.
type EvictHook = Box<dyn Fn(&str) + Send + Sync>;

/// One server's data store.
#[derive(Default)]
pub struct DataManager {
    items: RwLock<HashMap<String, Stored>>,
    /// Byte cap on resident payloads; `None` = unbounded.
    capacity: Option<u64>,
    /// Resident payload bytes, maintained under the write lock.
    used: AtomicU64,
    /// Logical access clock.
    clock: AtomicU64,
    evictions: AtomicU64,
    evict_hook: RwLock<Option<EvictHook>>,
}

impl std::fmt::Debug for DataManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataManager")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("used", &self.used.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .finish()
    }
}

impl DataManager {
    /// Unbounded store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store bounded to `capacity_bytes` of resident payload.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        Self {
            capacity: Some(capacity_bytes),
            ..Self::default()
        }
    }

    /// Register a callback fired whenever an id leaves the store (LRU
    /// eviction, `free`, or migration). Always invoked outside the lock.
    pub fn set_evict_hook(&self, f: impl Fn(&str) + Send + Sync + 'static) {
        *self.evict_hook.write() = Some(Box::new(f));
    }

    fn notify_evicted(&self, ids: &[String]) {
        if ids.is_empty() {
            return;
        }
        let hook = self.evict_hook.read();
        if let Some(h) = hook.as_ref() {
            for id in ids {
                h(id);
            }
        }
    }

    /// Store a value after a solve, honouring its persistence mode.
    /// Volatile data is dropped (returns false). May evict LRU persistent
    /// items to stay under capacity; the freshly retained id is never the
    /// victim of its own insertion.
    pub fn retain(&self, id: &str, value: DietValue, mode: Persistence) -> bool {
        match mode {
            Persistence::Volatile => false,
            Persistence::Persistent | Persistence::Sticky => {
                let size = value.payload_bytes();
                let mut evicted: Vec<String> = Vec::new();
                {
                    let mut w = self.items.write();
                    if let Some(old) = w.remove(id) {
                        self.used
                            .fetch_sub(old.value.payload_bytes(), Ordering::Relaxed);
                    }
                    w.insert(
                        id.to_string(),
                        Stored {
                            value,
                            mode,
                            hits: AtomicU64::new(0),
                            last_access: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
                        },
                    );
                    self.used.fetch_add(size, Ordering::Relaxed);
                    if let Some(cap) = self.capacity {
                        while self.used.load(Ordering::Relaxed) > cap {
                            let victim = w
                                .iter()
                                .filter(|(k, s)| s.mode != Persistence::Sticky && k.as_str() != id)
                                .min_by_key(|(k, s)| {
                                    (s.last_access.load(Ordering::Relaxed), k.as_str())
                                })
                                .map(|(k, _)| k.clone());
                            match victim {
                                Some(v) => {
                                    let gone = w.remove(&v).unwrap();
                                    self.used
                                        .fetch_sub(gone.value.payload_bytes(), Ordering::Relaxed);
                                    self.evictions.fetch_add(1, Ordering::Relaxed);
                                    evicted.push(v);
                                }
                                // Everything left is sticky or the new item.
                                None => break,
                            }
                        }
                    }
                }
                self.notify_evicted(&evicted);
                true
            }
        }
    }

    /// Fetch by id. Read lock only: hit and recency counters are atomics, so
    /// concurrent gets proceed in parallel.
    pub fn get(&self, id: &str) -> Result<DietValue, DietError> {
        let r = self.items.read();
        match r.get(id) {
            Some(s) => {
                s.hits.fetch_add(1, Ordering::Relaxed);
                s.last_access.store(
                    self.clock.fetch_add(1, Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                Ok(s.value.clone())
            }
            None => Err(DietError::DataNotFound(id.to_string())),
        }
    }

    /// Like [`DataManager::get`], but also reports the persistence mode —
    /// what a `DataReply` carries so the puller can retain the replica under
    /// the same contract.
    pub fn get_with_mode(&self, id: &str) -> Result<(DietValue, Persistence), DietError> {
        let r = self.items.read();
        match r.get(id) {
            Some(s) => {
                s.hits.fetch_add(1, Ordering::Relaxed);
                s.last_access.store(
                    self.clock.fetch_add(1, Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                Ok((s.value.clone(), s.mode))
            }
            None => Err(DietError::DataNotFound(id.to_string())),
        }
    }

    /// Take data *away* from this server (migration). Sticky data refuses to
    /// move — that is its contract.
    pub fn take_for_migration(&self, id: &str) -> Result<DietValue, DietError> {
        let out = {
            let mut w = self.items.write();
            match w.get(id) {
                Some(s) if s.mode == Persistence::Sticky => {
                    return Err(DietError::Rejected(format!(
                        "data {id} is sticky and cannot migrate"
                    )))
                }
                Some(_) => {
                    let gone = w.remove(id).unwrap();
                    self.used
                        .fetch_sub(gone.value.payload_bytes(), Ordering::Relaxed);
                    gone.value
                }
                None => return Err(DietError::DataNotFound(id.to_string())),
            }
        };
        self.notify_evicted(&[id.to_string()]);
        Ok(out)
    }

    /// Client-driven free (the `diet_free_data` analog).
    pub fn free(&self, id: &str) -> Result<(), DietError> {
        {
            let mut w = self.items.write();
            let gone = w
                .remove(id)
                .ok_or_else(|| DietError::DataNotFound(id.to_string()))?;
            self.used
                .fetch_sub(gone.value.payload_bytes(), Ordering::Relaxed);
        }
        self.notify_evicted(&[id.to_string()]);
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.items.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.read().is_empty()
    }

    pub fn contains(&self, id: &str) -> bool {
        self.items.read().contains_key(id)
    }

    /// Ids currently resident (sorted, for deterministic diagnostics).
    pub fn ids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.items.read().keys().cloned().collect();
        v.sort();
        v
    }

    pub fn hits(&self, id: &str) -> Option<u64> {
        self.items
            .read()
            .get(id)
            .map(|s| s.hits.load(Ordering::Relaxed))
    }

    /// Total payload bytes held (capacity accounting). O(1): maintained on
    /// every insert/remove.
    pub fn stored_bytes(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Recompute resident bytes by walking the map — test/debug cross-check
    /// for the O(1) counter.
    pub fn recounted_bytes(&self) -> u64 {
        self.items
            .read()
            .values()
            .map(|s| s.value.payload_bytes())
            .sum()
    }

    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Number of LRU evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn volatile_is_not_retained() {
        let dm = DataManager::new();
        assert!(!dm.retain("a", DietValue::ScalarI32(1), Persistence::Volatile));
        assert!(dm.is_empty());
        assert!(matches!(dm.get("a"), Err(DietError::DataNotFound(_))));
    }

    #[test]
    fn persistent_is_retained_and_fetchable() {
        let dm = DataManager::new();
        assert!(dm.retain("ic", DietValue::ScalarF64(2.5), Persistence::Persistent));
        assert_eq!(dm.get("ic").unwrap(), DietValue::ScalarF64(2.5));
        assert_eq!(dm.hits("ic"), Some(1));
        dm.get("ic").unwrap();
        assert_eq!(dm.hits("ic"), Some(2));
    }

    #[test]
    fn sticky_refuses_migration_but_persistent_moves() {
        let dm = DataManager::new();
        dm.retain("p", DietValue::ScalarI32(1), Persistence::Persistent);
        dm.retain("s", DietValue::ScalarI32(2), Persistence::Sticky);
        assert_eq!(dm.take_for_migration("p").unwrap(), DietValue::ScalarI32(1));
        assert_eq!(dm.len(), 1);
        assert!(matches!(
            dm.take_for_migration("s"),
            Err(DietError::Rejected(_))
        ));
        assert_eq!(dm.get("s").unwrap(), DietValue::ScalarI32(2));
    }

    #[test]
    fn free_removes() {
        let dm = DataManager::new();
        dm.retain("x", DietValue::Str("abc".into()), Persistence::Persistent);
        dm.free("x").unwrap();
        assert!(dm.is_empty());
        assert!(dm.free("x").is_err());
    }

    #[test]
    fn stored_bytes_accounts_payloads() {
        let dm = DataManager::new();
        dm.retain(
            "v",
            DietValue::vec_f64(vec![0.0; 16]),
            Persistence::Persistent,
        );
        dm.retain("s", DietValue::Str("abcd".into()), Persistence::Sticky);
        assert_eq!(dm.stored_bytes(), 128 + 4);
        assert_eq!(dm.recounted_bytes(), dm.stored_bytes());
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        // 3 × 80-byte vectors in a 200-byte store: the coldest goes.
        let dm = DataManager::with_capacity(200);
        dm.retain(
            "a",
            DietValue::vec_f64(vec![0.0; 10]),
            Persistence::Persistent,
        );
        dm.retain(
            "b",
            DietValue::vec_f64(vec![1.0; 10]),
            Persistence::Persistent,
        );
        // Touch "a" so "b" becomes the LRU victim.
        dm.get("a").unwrap();
        dm.retain(
            "c",
            DietValue::vec_f64(vec![2.0; 10]),
            Persistence::Persistent,
        );
        assert_eq!(dm.ids(), vec!["a".to_string(), "c".to_string()]);
        assert_eq!(dm.evictions(), 1);
        assert!(dm.stored_bytes() <= 200);

        // Equal stamps: the smaller id goes first, whatever the map's order.
        for s in dm.items.read().values() {
            s.last_access.store(7, Ordering::Relaxed);
        }
        dm.retain(
            "b",
            DietValue::vec_f64(vec![3.0; 10]),
            Persistence::Persistent,
        );
        assert_eq!(dm.ids(), vec!["b".to_string(), "c".to_string()]);
    }

    #[test]
    fn sticky_is_pinned_under_pressure() {
        let dm = DataManager::with_capacity(100);
        dm.retain(
            "pin",
            DietValue::vec_f64(vec![0.0; 10]),
            Persistence::Sticky,
        );
        dm.retain(
            "p1",
            DietValue::vec_f64(vec![0.0; 10]),
            Persistence::Persistent,
        );
        // 160 > 100: the persistent item is evicted, the sticky one stays,
        // and the store remains (pinned + newest) over budget by design.
        dm.retain(
            "p2",
            DietValue::vec_f64(vec![0.0; 10]),
            Persistence::Persistent,
        );
        assert!(dm.contains("pin"), "sticky must survive pressure");
        assert!(!dm.contains("p1"));
        assert!(dm.contains("p2"), "fresh retain is never its own victim");
    }

    #[test]
    fn evict_hook_fires_for_every_departure() {
        let dm = DataManager::with_capacity(100);
        let gone: Arc<parking_lot::Mutex<Vec<String>>> = Arc::default();
        let sink = gone.clone();
        dm.set_evict_hook(move |id| sink.lock().push(id.to_string()));
        dm.retain(
            "a",
            DietValue::vec_f64(vec![0.0; 10]),
            Persistence::Persistent,
        );
        dm.retain(
            "b",
            DietValue::vec_f64(vec![0.0; 10]),
            Persistence::Persistent,
        );
        assert_eq!(gone.lock().as_slice(), ["a".to_string()]);
        dm.free("b").unwrap();
        assert_eq!(gone.lock().as_slice(), ["a".to_string(), "b".to_string()]);
        dm.retain("c", DietValue::ScalarI32(1), Persistence::Persistent);
        dm.take_for_migration("c").unwrap();
        assert_eq!(gone.lock().len(), 3);
    }

    #[test]
    fn concurrent_gets_only_need_the_read_lock() {
        // Smoke check that parallel readers all see the value and the hit
        // counter is exact.
        let dm = Arc::new(DataManager::new());
        dm.retain("x", DietValue::vec_i32(vec![7; 8]), Persistence::Persistent);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let dm = dm.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        dm.get("x").unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(dm.hits("x"), Some(800));
    }
}
