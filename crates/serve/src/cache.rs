//! Sharded in-memory memoization cache for response bodies.
//!
//! Keys are the **canonical strings** of fully resolved request
//! parameters ([`faultline_core::query::canonical_string`]), so two
//! spellings of the same request share an entry while any parameter
//! difference — notably the seed — always yields a distinct entry: the
//! full canonical string is compared, the 64-bit hash only picks the
//! shard, so hash collisions can never cross-contaminate responses.
//!
//! Each shard is an independent mutex around a `HashMap` plus a
//! recency index (`BTreeMap<tick, key>`); entries are evicted
//! least-recently-used while a shard exceeds its byte budget. Cached
//! bodies are `Arc<[u8]>` handed out without copying, which is what
//! makes cache hits byte-identical to the fresh computation that
//! populated them.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use faultline_core::query::fnv1a64;

struct Entry {
    body: Arc<[u8]>,
    tick: u64,
    bytes: usize,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Entry>,
    recency: BTreeMap<u64, String>,
    tick: u64,
    bytes: usize,
}

impl Shard {
    fn touch(&mut self, key: &str) -> Option<Arc<[u8]>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key)?;
        // The recency index's copy of the key moves to the new tick.
        let copy = self.recency.remove(&entry.tick).expect("recency and map stay in sync");
        entry.tick = tick;
        self.recency.insert(tick, copy);
        Some(Arc::clone(&entry.body))
    }

    fn insert(&mut self, key: String, body: Arc<[u8]>, budget: usize) {
        let bytes = key.len() + body.len();
        if bytes > budget {
            return; // larger than the whole shard: not cacheable
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(old) = self.map.remove(&key) {
            self.recency.remove(&old.tick);
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.recency.insert(tick, key.clone());
        self.map.insert(key, Entry { body, tick, bytes });
        while self.bytes > budget {
            let Some((&oldest, _)) = self.recency.iter().next() else { break };
            let victim = self.recency.remove(&oldest).expect("tick just observed");
            let evicted = self.map.remove(&victim).expect("recency and map stay in sync");
            self.bytes -= evicted.bytes;
        }
    }
}

/// Moves `gauge` by the change from `before` to `after`.
fn shift(gauge: &AtomicUsize, before: usize, after: usize) {
    if after >= before {
        gauge.fetch_add(after - before, Ordering::Relaxed);
    } else {
        gauge.fetch_sub(before - after, Ordering::Relaxed);
    }
}

/// The sharded LRU response cache.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    live_bytes: AtomicUsize,
    live_entries: AtomicUsize,
}

impl ResponseCache {
    /// Creates a cache with `total_bytes` split evenly over `shards`
    /// independently locked shards (`shards >= 1`).
    #[must_use]
    pub fn new(total_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        ResponseCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: total_bytes / shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            live_bytes: AtomicUsize::new(0),
            live_entries: AtomicUsize::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let index = (fnv1a64(key.as_bytes()) % self.shards.len() as u64) as usize;
        &self.shards[index]
    }

    /// Looks up a cached response body, refreshing its recency. Counts
    /// a hit or miss.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<[u8]>> {
        let found = self.shard(key).lock().expect("cache shard poisoned").touch(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts (or replaces) a response body, evicting least-recently
    /// used entries while the shard exceeds its byte budget.
    pub fn insert(&self, key: String, body: Arc<[u8]>) {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        let before = (shard.bytes, shard.map.len());
        shard.insert(key, body, self.shard_budget);
        // The gauges move by the shard's change, under its lock, so
        // they always sum the shards.
        shift(&self.live_bytes, before.0, shard.bytes);
        shift(&self.live_entries, before.1, shard.map.len());
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative cache hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative cache misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative insertions.
    #[must_use]
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Bytes currently held (keys + bodies).
    #[must_use]
    pub fn live_bytes(&self) -> usize {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// Entries currently held.
    #[must_use]
    pub fn live_entries(&self) -> usize {
        self.live_entries.load(Ordering::Relaxed)
    }

    /// The hit ratio over all lookups so far (0 when none).
    #[must_use]
    pub(crate) fn hit_ratio(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<[u8]> {
        Arc::from(text.as_bytes().to_vec().into_boxed_slice())
    }

    #[test]
    fn hit_returns_identical_bytes() {
        let cache = ResponseCache::new(1024, 4);
        assert!(cache.get("k").is_none());
        cache.insert("k".to_owned(), body("payload"));
        let hit = cache.get("k").expect("just inserted");
        assert_eq!(&hit[..], b"payload");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_under_byte_budget() {
        // Single shard, tight budget: keys "a"/"b"/"c" with 9-byte
        // bodies cost 10 bytes each; budget 25 holds two entries.
        let cache = ResponseCache::new(25, 1);
        cache.insert("a".to_owned(), body("123456789"));
        cache.insert("b".to_owned(), body("123456789"));
        assert!(cache.get("a").is_some(), "refresh a so b is the LRU");
        cache.insert("c".to_owned(), body("123456789"));
        assert!(cache.get("a").is_some(), "a was refreshed");
        assert!(cache.get("b").is_none(), "b was the least recently used");
        assert!(cache.get("c").is_some());
        assert!(cache.live_bytes() <= 25);
        assert_eq!(cache.live_entries(), 2);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache = ResponseCache::new(8, 1);
        cache.insert("k".to_owned(), body("far too large for the shard"));
        assert!(cache.get("k").is_none());
        assert_eq!(cache.live_entries(), 0);
    }

    #[test]
    fn replacement_updates_bytes() {
        let cache = ResponseCache::new(64, 1);
        cache.insert("k".to_owned(), body("first"));
        cache.insert("k".to_owned(), body("second-longer"));
        assert_eq!(&cache.get("k").unwrap()[..], b"second-longer");
        assert_eq!(cache.live_entries(), 1);
        assert_eq!(cache.live_bytes(), 1 + "second-longer".len());
    }

    #[test]
    fn gauges_sum_the_shards_through_replacements_and_evictions() {
        let cache = ResponseCache::new(600, 3);
        for i in 0..200u64 {
            // Keys repeat, so some inserts replace, and bodies grow, so
            // shards fill and evict.
            let text = "x".repeat(1 + (i % 40) as usize);
            cache.insert(format!("key:{}", i % 70), body(&text));
            let (mut bytes, mut entries) = (0, 0);
            for shard in &cache.shards {
                let shard = shard.lock().unwrap();
                bytes += shard.bytes;
                entries += shard.map.len();
            }
            assert_eq!((cache.live_bytes(), cache.live_entries()), (bytes, entries), "insert {i}");
        }
        assert!(cache.live_entries() < 70, "the budget evicted");
    }

    #[test]
    fn distinct_keys_never_share_entries() {
        // Same shard or not, the full key is compared.
        let cache = ResponseCache::new(1 << 20, 2);
        for seed in 0..512u64 {
            cache.insert(format!("seed:{seed}"), body(&format!("body-{seed}")));
        }
        for seed in 0..512u64 {
            let hit = cache.get(&format!("seed:{seed}")).expect("all fit in budget");
            assert_eq!(&hit[..], format!("body-{seed}").as_bytes(), "seed {seed}");
        }
    }
}
