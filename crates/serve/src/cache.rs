//! Tenant-partitioned, sharded LRU cache for selectivity estimates.
//!
//! Keys are a shape discriminant plus the shape's
//! [`quantized`](selearn_core::quantize_rect_key_into) parameters (box
//! corners, unit normal + offset, or center + radius), plus the
//! *interned* model id ([`crate::registry::ModelSlot::id`]) and model
//! generation (bumped on every hot-swap), so a swap implicitly
//! invalidates all cached answers for that model without a stop-the-world
//! clear and differently-shaped queries can never alias one another. The interned id replaces the old `String` model-name component:
//! probes borrow a reusable [`CacheKey`] scratch owned by the worker, so
//! steady-state cache **hits are allocation-free** — a key is only cloned
//! when a miss inserts it.
//!
//! Entries are partitioned by tenant id: each tenant gets its own fixed
//! set of shards with its own capacity, created lazily at first touch, so
//! one hot tenant evicts only its own entries and can never wash out a
//! quiet neighbour's working set. Within a partition, entries are sharded
//! by key hash across independently locked LRU lists, keeping contention
//! between worker threads on different shards at zero.
//!
//! Each shard is a slab-backed intrusive doubly-linked list: `HashMap`
//! from key to slab index, `prev`/`next` links inside the slab, O(1)
//! lookup, promotion, and eviction — no allocation churn after warm-up.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Cache key: interned model id, model generation, shape discriminant,
/// quantized query parameters. Workers keep one as a reusable scratch
/// (mutate the fields, refill `cells` in place) and probe by reference.
///
/// The shape discriminant
/// ([`crate::protocol::ShapeKind::discriminant`]) keys the geometry
/// family alongside its quantized parameters, so a halfspace whose
/// `d + 1` cells happen to match a ball's — or a degenerate rect's —
/// can never alias its cache entry: cross-shape hits are structurally
/// impossible.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Interned model id ([`crate::registry::ModelSlot::id`]).
    pub model: u32,
    /// Model generation at probe time.
    pub generation: u64,
    /// Shape discriminant: 0 rect, 1 halfspace, 2 ball
    /// ([`crate::protocol::ShapeKind::discriminant`]).
    pub shape: u8,
    /// Quantized query-parameter cells: `2d` box-corner cells for rects
    /// ([`selearn_core::quantize_rect_key_into`]), `d + 1` cells for
    /// halfspaces (unit normal + offset) and balls (center + radius).
    pub cells: Vec<u32>,
}

const NIL: usize = usize::MAX;

struct Entry {
    key: CacheKey,
    value: f64,
    prev: usize,
    next: usize,
}

/// One LRU shard: slab + index + head/tail of the recency list.
struct Shard {
    map: HashMap<CacheKey, usize>,
    slab: Vec<Entry>,
    /// Most recently used.
    head: usize,
    /// Least recently used (eviction candidate).
    tail: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Unlinks slot `i` from the recency list (it must be linked).
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    /// Links slot `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slab[h].prev = i,
        }
        self.head = i;
    }

    fn get(&mut self, key: &CacheKey) -> Option<f64> {
        let i = *self.map.get(key)?;
        self.unlink(i);
        self.link_front(i);
        Some(self.slab[i].value)
    }

    /// Inserts by reference: the key is cloned only when this creates a
    /// new entry (the refresh path just overwrites the value).
    fn insert(&mut self, key: &CacheKey, value: f64) {
        if let Some(&i) = self.map.get(key) {
            self.slab[i].value = value;
            self.unlink(i);
            self.link_front(i);
            return;
        }
        let i = if self.slab.len() < self.capacity {
            self.slab.push(Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        } else {
            // Evict the LRU entry and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.slab[victim].key = key.clone();
            self.slab[victim].value = value;
            victim
        };
        self.map.insert(key.clone(), i);
        self.link_front(i);
    }
}

/// One tenant's private shard set.
struct Partition {
    shards: Vec<Mutex<Shard>>,
}

impl Partition {
    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }
}

/// A tenant-partitioned, sharded LRU estimate cache with hit/miss
/// accounting. `capacity` is **per tenant** — each partition gets the
/// full shard set, so tenants never compete for cache residency.
pub struct EstimateCache {
    partitions: RwLock<HashMap<u32, Arc<Partition>>>,
    per_tenant_capacity: usize,
    shards: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EstimateCache {
    /// Creates a cache holding up to `capacity` entries *per tenant*,
    /// spread over `shards` locks (both clamped to at least 1; per-shard
    /// capacity rounds up). Partitions materialize lazily on first touch,
    /// so a thousand registered-but-idle tenants cost nothing.
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self {
            partitions: RwLock::new(HashMap::new()),
            per_tenant_capacity: capacity.max(1),
            shards: shards.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn partition(&self, tenant: u32) -> Arc<Partition> {
        if let Some(p) = self
            .partitions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&tenant)
        {
            return Arc::clone(p);
        }
        let mut parts = self
            .partitions
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let per_shard = self.per_tenant_capacity.div_ceil(self.shards);
        Arc::clone(parts.entry(tenant).or_insert_with(|| {
            Arc::new(Partition {
                shards: (0..self.shards)
                    .map(|_| Mutex::new(Shard::new(per_shard)))
                    .collect(),
            })
        }))
    }

    /// Looks up a cached estimate in `tenant`'s partition, promoting it
    /// to most-recently-used and bumping the hit/miss counters (the ones
    /// `/stats` and `/metrics` read). Borrows the key — hits never allocate.
    pub fn get(&self, tenant: u32, key: &CacheKey) -> Option<f64> {
        let partition = self.partition(tenant);
        let got = partition
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key);
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Inserts (or refreshes) an estimate in `tenant`'s partition,
    /// evicting the shard's LRU entry when full. The key is cloned only
    /// for a brand-new entry.
    pub fn insert(&self, tenant: u32, key: &CacheKey, value: f64) {
        self.partition(tenant)
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, value);
    }

    /// Lifetime hit count (all tenants).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count (all tenants).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of tenant partitions materialized so far.
    pub fn partitions(&self) -> usize {
        self.partitions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Current number of cached entries across all tenants and shards.
    pub fn len(&self) -> usize {
        let parts: Vec<Arc<Partition>> = self
            .partitions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect();
        parts
            .iter()
            .flat_map(|p| &p.shards)
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(model: u32, generation: u64, cells: &[u32]) -> CacheKey {
        CacheKey {
            model,
            generation,
            shape: 0,
            cells: cells.to_vec(),
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = EstimateCache::new(8, 2);
        assert_eq!(c.get(0, &key(0, 0, &[1, 2])), None);
        c.insert(0, &key(0, 0, &[1, 2]), 0.25);
        assert_eq!(c.get(0, &key(0, 0, &[1, 2])), Some(0.25));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn generation_bump_invalidates() {
        let c = EstimateCache::new(8, 1);
        c.insert(0, &key(0, 0, &[1]), 0.5);
        assert_eq!(c.get(0, &key(0, 1, &[1])), None, "new generation, new key");
    }

    #[test]
    fn model_id_separates_entries() {
        let c = EstimateCache::new(8, 1);
        c.insert(0, &key(1, 0, &[1]), 0.5);
        assert_eq!(c.get(0, &key(2, 0, &[1])), None, "different model id");
        assert_eq!(c.get(0, &key(1, 0, &[1])), Some(0.5));
    }

    #[test]
    fn shape_discriminant_separates_entries() {
        // A halfspace and a ball in 2D both quantize to d + 1 = 3 cells;
        // identical cells across shapes must still be distinct entries.
        let c = EstimateCache::new(8, 1);
        let halfspace = CacheKey {
            shape: 1,
            ..key(0, 0, &[3, 9, 12])
        };
        let ball = CacheKey {
            shape: 2,
            ..key(0, 0, &[3, 9, 12])
        };
        c.insert(0, &halfspace, 0.4);
        assert_eq!(c.get(0, &ball), None, "cross-shape hit");
        assert_eq!(c.get(0, &key(0, 0, &[3, 9, 12])), None, "rect vs halfspace");
        assert_eq!(c.get(0, &halfspace), Some(0.4));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = EstimateCache::new(2, 1);
        c.insert(0, &key(0, 0, &[1]), 0.1);
        c.insert(0, &key(0, 0, &[2]), 0.2);
        assert_eq!(c.get(0, &key(0, 0, &[1])), Some(0.1)); // promote [1]
        c.insert(0, &key(0, 0, &[3]), 0.3); // evicts [2]
        assert_eq!(c.get(0, &key(0, 0, &[2])), None);
        assert_eq!(c.get(0, &key(0, 0, &[1])), Some(0.1));
        assert_eq!(c.get(0, &key(0, 0, &[3])), Some(0.3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let c = EstimateCache::new(4, 1);
        c.insert(0, &key(0, 0, &[1]), 0.1);
        c.insert(0, &key(0, 0, &[1]), 0.9);
        assert_eq!(c.get(0, &key(0, 0, &[1])), Some(0.9));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_churn_stays_bounded() {
        let c = EstimateCache::new(16, 4);
        for i in 0..1000u32 {
            c.insert(0, &key(0, 0, &[i]), f64::from(i));
        }
        assert!(c.len() <= 20, "len {} exceeds sharded capacity", c.len());
        // The most recent key per shard must still be resident.
        assert_eq!(c.get(0, &key(0, 0, &[999])), Some(999.0));
    }

    #[test]
    fn tenants_are_isolated() {
        let c = EstimateCache::new(2, 1);
        // Tenant 1 floods its own partition...
        for i in 0..100u32 {
            c.insert(1, &key(0, 0, &[i]), 0.5);
        }
        // ...while tenant 2's single entry stays resident.
        c.insert(2, &key(0, 0, &[7]), 0.9);
        for i in 100..200u32 {
            c.insert(1, &key(0, 0, &[i]), 0.5);
        }
        assert_eq!(c.get(2, &key(0, 0, &[7])), Some(0.9));
        // Same key under a different tenant is a distinct entry.
        assert_eq!(c.get(1, &key(0, 0, &[7])), None);
        assert_eq!(c.partitions(), 2);
        assert!(c.len() <= 4);
    }
}
