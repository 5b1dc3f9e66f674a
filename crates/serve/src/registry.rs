//! Multi-tenant named-model registry with atomic hot-swap.
//!
//! Each registered model lives in a [`ModelSlot`]: one
//! `RwLock<(Arc<dyn SelectivityEstimator>, generation)>` plus the model's
//! data-space root. Workers [`get`](ModelSlot::get) the pair — a read lock
//! and an `Arc` clone, a few nanoseconds — then evaluate entirely on their
//! own handle, so a concurrent [`swap`](ModelRegistry::swap) never
//! invalidates an in-flight request, and a model is never paired with
//! another model's generation. Swapping holds the write lock only for the
//! pair exchange; the old model is freed after the lock is released, or
//! when its last in-flight reader drops its clone.
//!
//! **Multi-tenancy.** Model names are namespaced `table.column` ids: the
//! prefix before the first `.` is the model's *tenant* (the whole name
//! when there is no dot, so single-model deployments are a one-tenant
//! special case). At registration every slot is interned to a dense
//! `u32` model id (the allocation-free cache key) and attached to its
//! [`Tenant`], which carries a dense tenant id (the cache-partition key),
//! an optional [`TokenBucket`] admission quota, and pre-rendered
//! per-tenant obs counter names — so the per-request path never formats
//! a label. A tenant over its quota is shed with degrade reason
//! [`Quota`](crate::protocol::DegradeReason::Quota) *before* its request
//! takes a queue slot, so one saturated tenant cannot starve the rest.

use selearn_core::SharedEstimator;
use selearn_geom::Rect;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

/// A refilling token-bucket rate limiter: `rate` tokens per second,
/// holding at most `burst`. One token per request;
/// [`try_take`](Self::try_take) never blocks.
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    state: Mutex<BucketState>,
}

struct BucketState {
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/sec with capacity `burst`
    /// (both clamped to a small positive floor). Starts full.
    pub fn new(rate: f64, burst: f64) -> Self {
        let rate = rate.max(1e-9);
        let burst = burst.max(1.0);
        Self {
            rate,
            burst,
            state: Mutex::new(BucketState {
                tokens: burst,
                refilled: Instant::now(),
            }),
        }
    }

    /// Takes one token if available. `false` means the caller is over
    /// quota right now.
    pub fn try_take(&self) -> bool {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let now = Instant::now();
        let elapsed = now.duration_since(s.refilled).as_secs_f64();
        s.tokens = (s.tokens + elapsed * self.rate).min(self.burst);
        s.refilled = now;
        if s.tokens >= 1.0 {
            s.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// The configured refill rate (tokens/sec).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The configured burst capacity.
    pub fn burst(&self) -> f64 {
        self.burst
    }
}

/// One tenant namespace: shared by every model whose name starts
/// `<namespace>.`, created lazily at first registration.
pub struct Tenant {
    id: u32,
    namespace: String,
    bucket: RwLock<Option<Arc<TokenBucket>>>,
    /// Pre-rendered per-tenant counter names, so the request path never
    /// allocates a label string.
    requests_counter: String,
    quota_shed_counter: String,
}

impl Tenant {
    fn new(id: u32, namespace: &str) -> Self {
        let label = selearn_obs::expo::escape_label_value(namespace);
        Self {
            id,
            namespace: namespace.to_string(),
            bucket: RwLock::new(None),
            requests_counter: format!("serve.tenant_requests{{tenant=\"{label}\"}}"),
            quota_shed_counter: format!("serve.tenant_quota_shed{{tenant=\"{label}\"}}"),
        }
    }

    /// Dense tenant id — the cache-partition key.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The namespace string (`table` of `table.column`).
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// Admission check: counts the request on the per-tenant series and
    /// takes a quota token. `false` means shed this request with reason
    /// `"quota"` (the shed is counted here too).
    pub fn admit(&self) -> bool {
        selearn_obs::counter_add(&self.requests_counter, 1);
        let bucket = self
            .bucket
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        match bucket {
            None => true,
            Some(b) => {
                if b.try_take() {
                    true
                } else {
                    selearn_obs::counter_add(&self.quota_shed_counter, 1);
                    false
                }
            }
        }
    }

    /// The current quota bucket, if any.
    pub fn quota(&self) -> Option<Arc<TokenBucket>> {
        self.bucket
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn set_bucket(&self, bucket: Option<Arc<TokenBucket>>) {
        *self.bucket.write().unwrap_or_else(PoisonError::into_inner) = bucket;
    }
}

/// Splits a model name into its tenant namespace: the prefix before the
/// first `.`, or the whole name when there is none.
pub fn tenant_namespace(model_name: &str) -> &str {
    model_name.split_once('.').map_or(model_name, |(ns, _)| ns)
}

/// One registered model: the hot-swappable estimator together with its
/// generation (bumped per swap, part of the cache key), the data-space
/// root used for the uniform fallback, a dense interned id, and its
/// tenant.
pub struct ModelSlot {
    current: RwLock<(SharedEstimator, u64)>,
    root: Rect,
    id: u32,
    tenant: Arc<Tenant>,
}

impl ModelSlot {
    fn new(model: SharedEstimator, root: Rect, id: u32, tenant: Arc<Tenant>) -> Self {
        Self {
            current: RwLock::new((model, 0)),
            root,
            id,
            tenant,
        }
    }

    /// The model's data-space root.
    pub fn root(&self) -> &Rect {
        &self.root
    }

    /// Dense interned model id — the allocation-free cache-key component.
    /// Stable for the slot's lifetime; re-`register`ing a name mints a
    /// fresh id, which implicitly invalidates the old cache entries.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The tenant this model belongs to.
    pub fn tenant(&self) -> &Arc<Tenant> {
        &self.tenant
    }

    /// The current model and its generation (the number of completed
    /// swaps), read together: a cheap `Arc` clone under the read lock.
    pub fn get(&self) -> (SharedEstimator, u64) {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Replaces the model and bumps the generation in one write. The old
    /// model is dropped after the lock is released, so freeing it never
    /// holds up a reader.
    fn swap(&self, next: SharedEstimator) {
        let old = {
            let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
            let generation = current.1 + 1;
            std::mem::replace(&mut *current, (next, generation))
        };
        drop(old);
    }
}

/// The registry: name → [`ModelSlot`], namespace → [`Tenant`].
/// Registration is rare (startup, admin), so the outer map locks are
/// taken briefly and never on the per-request path once callers hold a
/// slot reference.
#[derive(Default)]
pub struct ModelRegistry {
    slots: RwLock<HashMap<String, Arc<ModelSlot>>>,
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    next_model_id: AtomicU32,
    next_tenant_id: AtomicU32,
    /// `(rate, burst)` applied to tenants that have no explicit quota,
    /// including ones created later. `None` means unlimited by default.
    default_quota: RwLock<Option<(f64, f64)>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces wholesale) a named model with its data-space
    /// root. Prefer [`swap`](Self::swap) for updating a live name — it
    /// preserves the slot, its generation history, and outstanding
    /// references. The name's `table.column` prefix selects (and lazily
    /// creates) the model's tenant.
    pub fn register(&self, name: &str, model: SharedEstimator, root: Rect) {
        let tenant = self.tenant_for(name);
        let id = self.next_model_id.fetch_add(1, Ordering::Relaxed);
        self.slots
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                name.to_string(),
                Arc::new(ModelSlot::new(model, root, id, tenant)),
            );
    }

    /// The tenant owning `model_name`'s namespace, created on first use
    /// (inheriting the default quota, when one is set).
    fn tenant_for(&self, model_name: &str) -> Arc<Tenant> {
        let ns = tenant_namespace(model_name);
        if let Some(t) = self
            .tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(ns)
        {
            return Arc::clone(t);
        }
        let mut tenants = self
            .tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = tenants.get(ns) {
            return Arc::clone(t); // lost the upgrade race, reuse theirs
        }
        let id = self.next_tenant_id.fetch_add(1, Ordering::Relaxed);
        let tenant = Arc::new(Tenant::new(id, ns));
        if let Some((rate, burst)) = *self
            .default_quota
            .read()
            .unwrap_or_else(PoisonError::into_inner)
        {
            tenant.set_bucket(Some(Arc::new(TokenBucket::new(rate, burst))));
        }
        tenants.insert(ns.to_string(), Arc::clone(&tenant));
        tenant
    }

    /// Sets the default admission quota applied to every tenant without
    /// an explicit one — existing and future. `rate <= 0` disables the
    /// default (existing default-derived buckets are removed).
    pub fn set_default_quota(&self, rate: f64, burst: f64) {
        let quota = (rate > 0.0).then_some((rate, burst.max(1.0)));
        *self
            .default_quota
            .write()
            .unwrap_or_else(PoisonError::into_inner) = quota;
        let tenants = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        for tenant in tenants.values() {
            tenant.set_bucket(quota.map(|(r, b)| Arc::new(TokenBucket::new(r, b))));
        }
    }

    /// Sets (or clears, with `None`) the admission quota of one tenant
    /// namespace. Returns `false` when the namespace has no registered
    /// models yet.
    pub fn set_quota(&self, namespace: &str, quota: Option<(f64, f64)>) -> bool {
        let tenants = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        match tenants.get(namespace) {
            Some(t) => {
                t.set_bucket(quota.map(|(r, b)| Arc::new(TokenBucket::new(r, b.max(1.0)))));
                true
            }
            None => false,
        }
    }

    /// Looks up a tenant by namespace.
    pub fn tenant(&self, namespace: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(namespace)
            .cloned()
    }

    /// All tenants, sorted by namespace.
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        let mut tenants: Vec<Arc<Tenant>> = self
            .tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect();
        tenants.sort_by(|a, b| a.namespace.cmp(&b.namespace));
        tenants
    }

    /// Hot-swaps the model under `name`. Returns `false` when the name is
    /// not registered (the new model is dropped).
    pub fn swap(&self, name: &str, next: SharedEstimator) -> bool {
        let slot = self.slot(name);
        match slot {
            Some(slot) => {
                slot.swap(next);
                selearn_obs::counter_add("serve.model_swaps", 1);
                true
            }
            None => false,
        }
    }

    /// Looks up a slot by name.
    pub fn slot(&self, name: &str) -> Option<Arc<ModelSlot>> {
        self.slots
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.slots
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when no model is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .slots
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

/// The uniform-selectivity fallback: the fraction of the data-space root
/// covered by the query box — exact for uniformly distributed data, and a
/// sane bounded answer for anything else. Used whenever admission control
/// keeps a request from reaching the model.
pub fn uniform_fallback(root: &Rect, lo: &[f64], hi: &[f64]) -> f64 {
    if lo.len() != root.dim() || hi.len() != root.dim() {
        return 0.0;
    }
    if lo
        .iter()
        .zip(hi)
        .any(|(l, h)| !l.is_finite() || !h.is_finite() || l > h)
    {
        return 0.0;
    }
    let root_vol = root.volume();
    if root_vol <= 0.0 {
        return 0.0;
    }
    let query = Rect::new(lo.to_vec(), hi.to_vec());
    (root.intersection_volume(&query) / root_vol).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selearn_core::SelectivityEstimator;
    use selearn_geom::Range;
    use std::sync::Arc;

    struct Constant(f64);
    impl SelectivityEstimator for Constant {
        fn estimate(&self, _r: &Range) -> f64 {
            self.0
        }
        fn num_buckets(&self) -> usize {
            1
        }
        fn name(&self) -> &'static str {
            "const"
        }
    }

    #[test]
    fn register_get_swap_bumps_generation() {
        let reg = ModelRegistry::new();
        reg.register("default", Arc::new(Constant(0.1)), Rect::unit(2));
        let slot = reg.slot("default").unwrap();
        let (m0, g0) = slot.get();
        assert_eq!(g0, 0);
        assert_eq!(m0.estimate(&Rect::unit(2).into()), 0.1);

        assert!(reg.swap("default", Arc::new(Constant(0.9))));
        let (m1, g1) = slot.get();
        assert_eq!(g1, 1);
        assert_eq!(m1.estimate(&Rect::unit(2).into()), 0.9);
        // The pre-swap handle still answers with the old model.
        assert_eq!(m0.estimate(&Rect::unit(2).into()), 0.1);
    }

    /// Readers racing 1 000 swaps always see the model installed under the
    /// generation they read with it, and generations never go backwards.
    #[test]
    fn readers_see_the_model_of_the_generation_they_read() {
        const SWAPS: u64 = 1_000;
        let reg = Arc::new(ModelRegistry::new());
        // The model installed by swap `k` answers `k`, so generation and
        // model agree exactly when `estimate == generation`.
        reg.register("m", Arc::new(Constant(0.0)), Rect::unit(1));
        let slot = reg.slot("m").unwrap();
        let probe: Range = Rect::unit(1).into();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(3));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (slot, probe) = (Arc::clone(&slot), probe.clone());
                let (done, start) = (Arc::clone(&done), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let (mut reads, mut last) = (0u64, 0u64);
                    loop {
                        let stop = done.load(Ordering::Acquire);
                        let (model, generation) = slot.get();
                        assert_eq!(model.estimate(&probe), generation as f64);
                        assert!(
                            generation >= last,
                            "generation went back {last} -> {generation}"
                        );
                        last = generation;
                        reads += 1;
                        if stop {
                            return reads;
                        }
                    }
                })
            })
            .collect();
        start.wait();
        for k in 1..=SWAPS {
            assert!(reg.swap("m", Arc::new(Constant(k as f64))));
        }
        done.store(true, Ordering::Release);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(slot.get().1, SWAPS);
    }

    #[test]
    fn swap_unknown_name_is_false() {
        let reg = ModelRegistry::new();
        assert!(!reg.swap("nope", Arc::new(Constant(0.5))));
        assert!(reg.slot("nope").is_none());
    }

    #[test]
    fn namespaces_intern_tenants_and_model_ids() {
        let reg = ModelRegistry::new();
        reg.register("orders.price", Arc::new(Constant(0.1)), Rect::unit(1));
        reg.register("orders.qty", Arc::new(Constant(0.2)), Rect::unit(1));
        reg.register("users.age", Arc::new(Constant(0.3)), Rect::unit(1));
        reg.register("plain", Arc::new(Constant(0.4)), Rect::unit(1));

        let price = reg.slot("orders.price").unwrap();
        let qty = reg.slot("orders.qty").unwrap();
        let age = reg.slot("users.age").unwrap();
        let plain = reg.slot("plain").unwrap();

        assert_eq!(price.tenant().namespace(), "orders");
        assert_eq!(qty.tenant().namespace(), "orders");
        assert_eq!(age.tenant().namespace(), "users");
        assert_eq!(plain.tenant().namespace(), "plain");
        assert_eq!(price.tenant().id(), qty.tenant().id());
        assert_ne!(price.tenant().id(), age.tenant().id());

        // Model ids are dense and unique.
        let mut ids = vec![price.id(), qty.id(), age.id(), plain.id()];
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        assert_eq!(reg.tenants().len(), 3);
        assert_eq!(reg.len(), 4);
    }

    #[test]
    fn reregister_mints_a_fresh_model_id() {
        let reg = ModelRegistry::new();
        reg.register("a.m", Arc::new(Constant(0.1)), Rect::unit(1));
        let old = reg.slot("a.m").unwrap().id();
        reg.register("a.m", Arc::new(Constant(0.2)), Rect::unit(1));
        assert_ne!(reg.slot("a.m").unwrap().id(), old);
    }

    #[test]
    fn token_bucket_limits_and_refills() {
        let b = TokenBucket::new(1000.0, 2.0);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take(), "burst of 2 exhausted");
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(b.try_take(), "refilled at 1000/s");
    }

    #[test]
    fn tenant_quota_admission() {
        let reg = ModelRegistry::new();
        reg.register("a.m", Arc::new(Constant(0.1)), Rect::unit(1));
        reg.register("b.m", Arc::new(Constant(0.2)), Rect::unit(1));
        let a = reg.slot("a.m").unwrap();
        let b = reg.slot("b.m").unwrap();
        // No quota: always admitted.
        for _ in 0..100 {
            assert!(a.tenant().admit());
        }
        // Tiny quota on "a" only.
        assert!(reg.set_quota("a", Some((1e-6, 2.0))));
        assert!(a.tenant().admit());
        assert!(a.tenant().admit());
        assert!(!a.tenant().admit(), "tenant a over quota");
        assert!(b.tenant().admit(), "tenant b unaffected");
        // Clearing restores unlimited admission.
        assert!(reg.set_quota("a", None));
        assert!(a.tenant().admit());
        assert!(!reg.set_quota("nope", Some((1.0, 1.0))));
    }

    #[test]
    fn default_quota_applies_to_new_and_existing_tenants() {
        let reg = ModelRegistry::new();
        reg.register("old.m", Arc::new(Constant(0.1)), Rect::unit(1));
        reg.set_default_quota(1e-6, 1.0);
        reg.register("new.m", Arc::new(Constant(0.2)), Rect::unit(1));
        let old = reg.slot("old.m").unwrap();
        let new = reg.slot("new.m").unwrap();
        assert!(old.tenant().quota().is_some());
        assert!(new.tenant().quota().is_some());
        assert!(old.tenant().admit());
        assert!(!old.tenant().admit());
        reg.set_default_quota(0.0, 0.0);
        assert!(new.tenant().quota().is_none());
    }

    #[test]
    fn uniform_fallback_is_coverage_fraction() {
        let root = Rect::new(vec![0.0, 0.0], vec![2.0, 2.0]);
        let sel = uniform_fallback(&root, &[0.0, 0.0], &[1.0, 1.0]);
        assert!((sel - 0.25).abs() < 1e-12);
        // Clipping: boxes poking outside the root count only the overlap.
        let sel = uniform_fallback(&root, &[1.0, 1.0], &[5.0, 5.0]);
        assert!((sel - 0.25).abs() < 1e-12);
        // Garbage shapes answer 0 rather than panicking.
        assert_eq!(uniform_fallback(&root, &[0.0], &[1.0, 1.0]), 0.0);
        assert_eq!(uniform_fallback(&root, &[1.0, 1.0], &[0.0, 0.0]), 0.0);
        assert_eq!(uniform_fallback(&root, &[f64::NAN, 0.0], &[1.0, 1.0]), 0.0);
    }
}
