//! Content-hashed result cache — the shared state of every evaluation
//! layer, from one-shot sweeps to the long-running `mr2-serve` service.
//!
//! Every evaluation a sweep performs — a simulator measurement, a model
//! solve, a profiling run — is keyed by an FNV-1a hash of its *complete*
//! input description (cluster config, job spec, N, reps, seed, backend
//! tag). Because evaluations are deterministic functions of those
//! inputs, a key hit can return the stored floats verbatim: repeated
//! sweeps, overlapping scenarios, and the estimator axis (whose points
//! share the underlying solve) all skip straight to the answer.
//!
//! Three properties make the cache safe to share between concurrent
//! clients of a service:
//!
//! * **Versioned keys** — [`KeyHasher::versioned`] bakes the model and
//!   simulator schema versions ([`schema_version`]) into the hash, so
//!   results persisted by an older build silently miss instead of
//!   serving stale numbers under valid-looking keys.
//! * **In-flight coalescing** — concurrent [`ResultCache::get_or_compute`]
//!   calls for the same key cost exactly one evaluation: the first
//!   caller computes, the rest block on the in-flight entry and receive
//!   the same allocation.
//! * **Bounded size** — [`ResultCache::with_capacity`] caps the entry
//!   count with least-recently-used eviction, so a long-running service
//!   can't grow without bound.
//!
//! The store persists to a simple line-oriented text file
//! ([`ResultCache::save`]/[`ResultCache::load`]) so sweeps skip work
//! across processes too.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Live process-wide mirrors of the per-cache counters: every
/// [`ResultCache`] in the process increments these `mr2-obs` families
/// alongside its own [`CacheStats`] atomics, so `GET /metrics` shows
/// cache behaviour without polling each cache instance.
fn obs_counters() -> &'static [mr2_obs::Counter; 4] {
    static C: OnceLock<[mr2_obs::Counter; 4]> = OnceLock::new();
    C.get_or_init(|| {
        [
            mr2_obs::counter(
                "mr2_cache_hits_total",
                "Result-cache lookups answered from a ready entry.",
            ),
            mr2_obs::counter(
                "mr2_cache_misses_total",
                "Result-cache lookups that computed a fresh entry.",
            ),
            mr2_obs::counter(
                "mr2_cache_coalesced_total",
                "Result-cache lookups that waited on an identical in-flight computation.",
            ),
            mr2_obs::counter(
                "mr2_cache_evictions_total",
                "Result-cache entries evicted by the LRU bound.",
            ),
        ]
    })
}

/// Combined schema version of everything a cached record depends on:
/// the analytic model ([`mr2_model::MODEL_SCHEMA_VERSION`]) and the
/// simulator ([`mapreduce_sim::SIM_SCHEMA_VERSION`]). Baked into every
/// [`KeyHasher::versioned`] key: bumping either constant invalidates
/// all previously hashed results at the key level.
pub fn schema_version() -> u64 {
    ((mr2_model::MODEL_SCHEMA_VERSION as u64) << 32) | mapreduce_sim::SIM_SCHEMA_VERSION as u64
}

/// Incremental FNV-1a content hasher for cache keys.
///
/// Stable across runs, platforms, and — unlike `DefaultHasher` — Rust
/// releases, so persisted caches stay valid.
#[derive(Debug, Clone)]
pub struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

impl KeyHasher {
    /// Start a fresh key.
    pub fn new() -> KeyHasher {
        KeyHasher(0xcbf29ce484222325)
    }

    /// Start a fresh key with the current [`schema_version`] mixed in —
    /// the constructor every evaluation key must use, so schema bumps
    /// invalidate persisted results.
    pub fn versioned() -> KeyHasher {
        KeyHasher::with_schema_version(schema_version())
    }

    /// Start a fresh key under an explicit schema version (exposed so
    /// tests can demonstrate cross-version misses).
    pub fn with_schema_version(version: u64) -> KeyHasher {
        KeyHasher::new().u64(version)
    }

    /// One FNV-1a step. The multiply chain is inherently serial — every
    /// byte's product feeds the next xor — so the only latitude an
    /// implementation has is how bytes reach the chain, never their
    /// order.
    #[inline(always)]
    fn step(h: u64, b: u8) -> u64 {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    }

    /// Feed one little-endian word through eight unrolled FNV-1a steps,
    /// low byte first — bit-identical to hashing `w.to_le_bytes()` a
    /// byte at a time, but the lanes shift out of a register instead of
    /// loading (and bounds-checking) eight separate bytes.
    #[inline(always)]
    fn word(mut h: u64, w: u64) -> u64 {
        h = Self::step(h, w as u8);
        h = Self::step(h, (w >> 8) as u8);
        h = Self::step(h, (w >> 16) as u8);
        h = Self::step(h, (w >> 24) as u8);
        h = Self::step(h, (w >> 32) as u8);
        h = Self::step(h, (w >> 40) as u8);
        h = Self::step(h, (w >> 48) as u8);
        Self::step(h, (w >> 56) as u8)
    }

    /// Mix raw bytes: whole words via [`KeyHasher::word`], the tail a
    /// byte at a time. Byte-identical to the reference per-byte loop
    /// for every input length (pinned by `key_hasher_is_stable` and the
    /// batched-vs-reference test).
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
            self.0 = Self::word(self.0, w);
        }
        for &b in chunks.remainder() {
            self.0 = Self::step(self.0, b);
        }
        self
    }

    /// Mix a string (length-prefixed so concatenations can't collide).
    pub fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Mix a `u64` — one [`KeyHasher::word`] batch, no byte round-trip
    /// through memory (little-endian byte order, same as
    /// `bytes(&v.to_le_bytes())`).
    pub fn u64(self, v: u64) -> Self {
        KeyHasher(Self::word(self.0, v))
    }

    /// Mix an `f64` by bit pattern (bit-exact, no rounding).
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Mix a `bool`.
    pub fn bool(self, v: bool) -> Self {
        self.u64(v as u64)
    }

    /// Finish and return the 64-bit key.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One in-flight computation other callers can wait on.
#[derive(Debug)]
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

#[derive(Debug, Clone)]
enum FlightState {
    Computing,
    /// The computing caller finished and published this record.
    Ready(Arc<Vec<f64>>),
    /// The computing caller panicked; waiters must recompute.
    Abandoned,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(FlightState::Computing),
            done: Condvar::new(),
        }
    }

    fn publish(&self, state: FlightState) {
        *self.state.lock().unwrap() = state;
        self.done.notify_all();
    }

    /// Block until the computing caller publishes; `None` means it
    /// abandoned the flight (panicked) and the waiter must recompute.
    fn wait(&self) -> Option<Arc<Vec<f64>>> {
        let mut state = self.state.lock().unwrap();
        loop {
            match &*state {
                FlightState::Computing => state = self.done.wait(state).unwrap(),
                FlightState::Ready(v) => return Some(Arc::clone(v)),
                FlightState::Abandoned => return None,
            }
        }
    }
}

#[derive(Debug)]
enum Slot {
    Ready { value: Arc<Vec<f64>>, stamp: u64 },
    Pending(Arc<Flight>),
}

/// Map + LRU bookkeeping behind one lock.
#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Slot>,
    /// LRU order of the *ready* entries: use-stamp → key. Stamps come
    /// from `clock`, so the smallest stamp is the least recently used.
    lru: BTreeMap<u64, u64>,
    clock: u64,
    /// Bumped on every insert and eviction — a change stamp for "has
    /// the stored content changed since X?" (recency touches don't
    /// count; they don't alter what a snapshot would contain).
    mutations: u64,
}

impl Inner {
    fn touch(&mut self, key: u64) {
        self.clock += 1;
        let fresh = self.clock;
        if let Some(Slot::Ready { stamp, .. }) = self.map.get_mut(&key) {
            self.lru.remove(stamp);
            *stamp = fresh;
            self.lru.insert(fresh, key);
        }
    }

    /// Insert a ready record (fresh stamp) and report how many evictions
    /// a `capacity` bound forces.
    fn insert_ready(&mut self, key: u64, value: Arc<Vec<f64>>, capacity: usize) -> u64 {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(Slot::Ready { stamp: old, .. }) =
            self.map.insert(key, Slot::Ready { value, stamp })
        {
            self.lru.remove(&old);
        }
        self.lru.insert(stamp, key);
        let mut evicted = 0;
        if capacity > 0 {
            while self.lru.len() > capacity {
                let (_, victim) = self.lru.pop_first().expect("len > capacity > 0");
                self.map.remove(&victim);
                evicted += 1;
            }
        }
        self.mutations += 1 + evicted;
        evicted
    }
}

/// Thread-safe content-addressed store of evaluation results (flat
/// `f64` records) with in-flight coalescing and optional LRU bounding.
#[derive(Debug, Default)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    /// Maximum number of ready entries; 0 means unbounded.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

/// Counters and size of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that had to evaluate (each miss is exactly one execution
    /// of a compute closure).
    pub misses: u64,
    /// Lookups that joined another caller's in-flight evaluation instead
    /// of computing their own.
    pub coalesced: u64,
    /// Entries dropped by the LRU size bound.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// The size bound (0 = unbounded).
    pub capacity: usize,
}

/// Removes the pending slot and wakes waiters if the compute closure
/// unwinds, so a panicking evaluation can't wedge its waiters forever.
struct FlightGuard<'a> {
    cache: &'a ResultCache,
    key: u64,
    flight: &'a Arc<Flight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.cache.inner.lock().unwrap();
            if matches!(inner.map.get(&self.key), Some(Slot::Pending(f)) if Arc::ptr_eq(f, self.flight))
            {
                inner.map.remove(&self.key);
            }
            drop(inner);
            self.flight.publish(FlightState::Abandoned);
        }
    }
}

impl ResultCache {
    /// An empty, unbounded cache.
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// An empty cache holding at most `capacity` entries, evicting the
    /// least recently used beyond that. `capacity` 0 means unbounded.
    pub fn with_capacity(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            ..ResultCache::default()
        }
    }

    /// The size bound (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Return the record for `key`, computing and storing it on a miss.
    ///
    /// Concurrent calls for the same key coalesce: exactly one caller
    /// executes `compute` (counted as the one miss) while the others
    /// block on the in-flight entry (counted as coalesced) and receive
    /// the same allocation — so results are bit-identical regardless of
    /// interleaving and concurrent identical queries cost one
    /// evaluation. If the computing caller panics its waiters recompute.
    pub fn get_or_compute<F: FnOnce() -> Vec<f64>>(&self, key: u64, compute: F) -> Arc<Vec<f64>> {
        let lookup_started = Instant::now();
        let mut compute = Some(compute);
        loop {
            let flight = {
                let mut inner = self.inner.lock().unwrap();
                match inner.map.get(&key) {
                    Some(Slot::Ready { value, .. }) => {
                        let value = Arc::clone(value);
                        inner.touch(key);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        obs_counters()[0].inc();
                        // Only the hit branch times the lookup itself;
                        // misses are dominated by `compute` and carry
                        // their own spans.
                        mr2_obs::observe_span(
                            "cache.lookup",
                            lookup_started.elapsed().as_secs_f64(),
                        );
                        return value;
                    }
                    Some(Slot::Pending(flight)) => {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        obs_counters()[2].inc();
                        Arc::clone(flight)
                    }
                    None => {
                        let flight = Arc::new(Flight::new());
                        inner.map.insert(key, Slot::Pending(Arc::clone(&flight)));
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        obs_counters()[1].inc();
                        drop(inner);

                        let mut guard = FlightGuard {
                            cache: self,
                            key,
                            flight: &flight,
                            armed: true,
                        };
                        let value = Arc::new(compute.take().expect("first computing attempt")());
                        guard.armed = false;

                        let evicted = {
                            let mut inner = self.inner.lock().unwrap();
                            inner.insert_ready(key, Arc::clone(&value), self.capacity)
                        };
                        self.evictions.fetch_add(evicted, Ordering::Relaxed);
                        obs_counters()[3].add(evicted);
                        flight.publish(FlightState::Ready(Arc::clone(&value)));
                        return value;
                    }
                }
            };
            // Wait outside the map lock; on abandonment, loop and try
            // again (possibly computing ourselves this time).
            if let Some(value) = flight.wait() {
                return value;
            }
            assert!(
                compute.is_some(),
                "a caller can abandon at most its own flight"
            );
        }
    }

    /// The records of every key in `keys`, in order, when all of them
    /// are ready; computes nothing and waits on no in-flight entry.
    ///
    /// All or nothing, under one lock: on success every key is touched
    /// in order and counted as one hit — what the same sequence of
    /// [`ResultCache::get_or_compute`] hits would count — and the lookup
    /// is observed as `cache.lookup`. When any key is missing or in
    /// flight, nothing is counted or touched.
    pub fn get_all(&self, keys: &[u64]) -> Option<Vec<Arc<Vec<f64>>>> {
        let lookup_started = Instant::now();
        let mut inner = self.inner.lock().unwrap();
        let records = keys
            .iter()
            .map(|key| match inner.map.get(key) {
                Some(Slot::Ready { value, .. }) => Some(Arc::clone(value)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        for &key in keys {
            inner.touch(key);
        }
        drop(inner);
        let hits = keys.len() as u64;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        obs_counters()[0].add(hits);
        mr2_obs::observe_span("cache.lookup", lookup_started.elapsed().as_secs_f64());
        Some(records)
    }

    /// Monotonic change stamp: bumped on every insert and eviction,
    /// untouched by lookups. Equal stamps ⇒ identical stored content,
    /// which is what lets a persistence loop skip clean snapshots
    /// without trusting the entry *count* (at capacity, insert+evict
    /// keeps the count constant while the content churns).
    pub fn mutation_count(&self) -> u64 {
        self.inner.lock().unwrap().mutations
    }

    /// Counters and size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().unwrap().lru.len(),
            capacity: self.capacity,
        }
    }

    /// Persist every ready entry to `path` as `key,v0,v1,...` lines
    /// (floats as hex bit patterns, so round-trips are bit-exact),
    /// headed by the format version and the [`schema_version`] the
    /// entries were computed under.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.inner.lock().unwrap();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "mr2-scenario-cache v1")?;
        writeln!(out, "schema {:016x}", schema_version())?;
        let mut keys: Vec<&u64> = inner
            .map
            .iter()
            .filter(|(_, s)| matches!(s, Slot::Ready { .. }))
            .map(|(k, _)| k)
            .collect();
        keys.sort_unstable();
        for k in keys {
            let Some(Slot::Ready { value, .. }) = inner.map.get(k) else {
                unreachable!("filtered to ready slots");
            };
            write!(out, "{k:016x}")?;
            for v in value.iter() {
                write!(out, ",{:016x}", v.to_bits())?;
            }
            writeln!(out)?;
        }
        out.flush()
    }

    /// Merge entries from a file written by [`ResultCache::save`].
    ///
    /// Returns the number of entries merged. Rejects files whose format
    /// header doesn't match (decoding a different format would silently
    /// yield wrong floats under valid keys). A file written under a
    /// different [`schema_version`] loads nothing (`Ok(0)`): its keys
    /// could never hit anyway, so merging them would only displace live
    /// entries. Malformed lines within a valid file are skipped and
    /// existing entries are kept.
    pub fn load(&self, path: &Path) -> std::io::Result<usize> {
        let body = std::fs::read_to_string(path)?;
        let mut lines = body.lines().peekable();
        if lines.next() != Some("mr2-scenario-cache v1") {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: not a mr2-scenario-cache v1 file", path.display()),
            ));
        }
        // The schema line is optional (files from before versioned keys
        // lack it; their keys are unversioned and simply never hit).
        if let Some(schema) = lines.peek().and_then(|l| l.strip_prefix("schema ")) {
            let stale = u64::from_str_radix(schema, 16)
                .map(|v| v != schema_version())
                .unwrap_or(true);
            if stale {
                return Ok(0);
            }
            lines.next();
        }
        let mut loaded = 0;
        for line in lines {
            let mut fields = line.split(',');
            let Some(key) = fields.next().and_then(|k| u64::from_str_radix(k, 16).ok()) else {
                continue;
            };
            let values: Option<Vec<f64>> = fields
                .map(|f| u64::from_str_radix(f, 16).ok().map(f64::from_bits))
                .collect();
            let Some(values) = values else { continue };
            let mut inner = self.inner.lock().unwrap();
            if !inner.map.contains_key(&key) {
                let evicted = inner.insert_ready(key, Arc::new(values), self.capacity);
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
                obs_counters()[3].add(evicted);
                loaded += 1;
            }
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn key_hasher_distinguishes_field_order_and_values() {
        let a = KeyHasher::new().u64(1).u64(2).finish();
        let b = KeyHasher::new().u64(2).u64(1).finish();
        assert_ne!(a, b);
        let c = KeyHasher::new().str("ab").str("c").finish();
        let d = KeyHasher::new().str("a").str("bc").finish();
        assert_ne!(c, d, "length prefix must prevent concatenation collisions");
        assert_ne!(
            KeyHasher::new().f64(1.0).finish(),
            KeyHasher::new().f64(-1.0).finish()
        );
    }

    #[test]
    fn key_hasher_is_stable() {
        // Pinned value: persisted caches depend on this never changing.
        assert_eq!(KeyHasher::new().str("probe").u64(7).finish(), {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in 5u64
                .to_le_bytes()
                .iter()
                .chain(b"probe")
                .chain(&7u64.to_le_bytes())
            {
                h ^= *b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            h
        });
    }

    #[test]
    fn batched_hashing_matches_the_reference_per_byte_loop() {
        // The word-at-a-time path must be byte-identical to the naive
        // FNV-1a loop for every input length, including tails shorter
        // than a word and inputs spanning several words.
        let reference = |bytes: &[u8]| {
            let mut h: u64 = 0xcbf29ce484222325;
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            h
        };
        let mut data = Vec::new();
        for len in 0..64usize {
            data.clear();
            data.extend((0..len).map(|i| (i as u8).wrapping_mul(37).wrapping_add(11)));
            assert_eq!(
                KeyHasher::new().bytes(&data).finish(),
                reference(&data),
                "length {len}"
            );
        }
        // And the u64 fast path is exactly bytes(&v.to_le_bytes()).
        for v in [0u64, 1, 0xdead_beef, u64::MAX, 0x0102_0304_0506_0708] {
            assert_eq!(
                KeyHasher::new().u64(v).finish(),
                KeyHasher::new().bytes(&v.to_le_bytes()).finish()
            );
            assert_eq!(
                KeyHasher::new().u64(v).finish(),
                reference(&v.to_le_bytes())
            );
        }
    }

    #[test]
    fn versioned_keys_miss_across_schema_bumps() {
        // The same content hashed under different schema versions must
        // land on different keys: that is what turns a version bump into
        // an automatic cache invalidation.
        let v1 = KeyHasher::with_schema_version(1).str("point").finish();
        let v2 = KeyHasher::with_schema_version(2).str("point").finish();
        assert_ne!(v1, v2);
        // `versioned()` is exactly `with_schema_version(schema_version())`.
        assert_eq!(
            KeyHasher::versioned().str("point").finish(),
            KeyHasher::with_schema_version(schema_version())
                .str("point")
                .finish()
        );
        // And it differs from an unversioned key of the same content.
        assert_ne!(
            KeyHasher::versioned().str("point").finish(),
            KeyHasher::new().str("point").finish()
        );

        let cache = ResultCache::new();
        cache.get_or_compute(v1, || vec![1.0]);
        cache.get_or_compute(v2, || vec![2.0]);
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (2, 2), "no cross-version hit");
    }

    #[test]
    fn hit_returns_identical_allocation() {
        let cache = ResultCache::new();
        let first = cache.get_or_compute(42, || vec![1.5, 2.5]);
        let second = cache.get_or_compute(42, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&first, &second));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!((s.coalesced, s.evictions), (0, 0));
    }

    #[test]
    fn get_all_counts_and_touches_every_record_or_none() {
        let cache = ResultCache::with_capacity(2);
        cache.get_or_compute(1, || vec![1.0]);
        cache.get_or_compute(2, || vec![2.0]);
        let got = cache.get_all(&[2, 1]).unwrap();
        assert_eq!((got[0][0], got[1][0]), (2.0, 1.0), "records in key order");
        assert_eq!(cache.stats().hits, 2, "one hit per record");
        // Touched in key order, so 2 is now the least recently used.
        cache.get_or_compute(3, || vec![3.0]);
        assert!(cache.get_all(&[2]).is_none(), "2 was evicted");

        // A missing key: no hit counted and no record touched, so 1 —
        // the least recently used — is the next victim.
        let hits = cache.stats().hits;
        assert!(cache.get_all(&[1, 9]).is_none());
        assert_eq!(cache.stats().hits, hits);
        cache.get_or_compute(4, || vec![4.0]);
        assert!(cache.get_all(&[1]).is_none(), "1 was not touched");
        assert!(cache.get_all(&[3, 4]).is_some());
    }

    #[test]
    fn get_all_neither_waits_on_nor_counts_an_in_flight_record() {
        let cache = ResultCache::new();
        cache.get_or_compute(1, || vec![1.0]);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let cache = &cache;
            s.spawn(move || {
                cache.get_or_compute(2, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    vec![2.0]
                })
            });
            started_rx.recv().unwrap();
            assert!(cache.get_all(&[1, 2]).is_none(), "2 is in flight");
            release_tx.send(()).unwrap();
        });
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (0, 2, 0));
        assert_eq!(cache.get_all(&[1, 2]).unwrap().len(), 2);
    }

    #[test]
    fn mutation_count_tracks_content_not_recency() {
        let cache = ResultCache::with_capacity(1);
        assert_eq!(cache.mutation_count(), 0);
        cache.get_or_compute(1, || vec![1.0]);
        assert_eq!(cache.mutation_count(), 1, "one insert");
        cache.get_or_compute(1, || unreachable!("hit"));
        cache.get_all(&[1]);
        assert_eq!(cache.mutation_count(), 1, "lookups don't count");
        // At capacity: insert+evict keeps `entries` at 1 but the stored
        // content changed — the stamp must move.
        cache.get_or_compute(2, || vec![2.0]);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.mutation_count(), 3, "insert + eviction");
    }

    #[test]
    fn eviction_respects_the_size_bound_in_lru_order() {
        let cache = ResultCache::with_capacity(2);
        cache.get_or_compute(1, || vec![1.0]);
        cache.get_or_compute(2, || vec![2.0]);
        // Touch 1 so 2 becomes the least recently used.
        cache.get_or_compute(1, || unreachable!("hit"));
        cache.get_or_compute(3, || vec![3.0]);
        let s = cache.stats();
        assert_eq!(s.entries, 2, "bound holds");
        assert_eq!(s.evictions, 1);
        assert!(cache.get_all(&[1]).is_some(), "recently used survives");
        assert!(cache.get_all(&[2]).is_none(), "LRU victim evicted");
        assert!(cache.get_all(&[3]).is_some());
        // Evicted keys recompute on the next request.
        cache.get_or_compute(2, || vec![2.5]);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ResultCache::new();
        for k in 0..100 {
            cache.get_or_compute(k, || vec![k as f64]);
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions, s.capacity), (100, 0, 0));
    }

    #[test]
    fn save_load_roundtrip_is_bit_exact() {
        let cache = ResultCache::new();
        let odd = f64::from_bits(0x7ff0000000000001); // NaN payload survives
        cache.get_or_compute(1, || vec![0.1 + 0.2, -0.0, odd]);
        cache.get_or_compute(2, Vec::new);
        let path = std::env::temp_dir().join("mr2-scenario-cache-test.txt");
        cache.save(&path).unwrap();

        let fresh = ResultCache::new();
        assert_eq!(fresh.load(&path).unwrap(), 2);
        let v = fresh.get_all(&[1, 2]).unwrap();
        assert_eq!(v[0][0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(v[0][1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(v[0][2].to_bits(), odd.to_bits());
        assert_eq!(v[1].len(), 0);
        // And a lookup through the compute path is a pure hit returning
        // the loaded record.
        let hits = fresh.stats().hits;
        let via_compute = fresh.get_or_compute(1, || panic!("loaded entry must hit"));
        assert_eq!(via_compute[0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(fresh.stats().hits, hits + 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_wrong_header_and_skips_stale_schema() {
        let dir = std::env::temp_dir();
        let bad = dir.join("mr2-scenario-cache-badheader.txt");
        std::fs::write(
            &bad,
            "mr2-scenario-cache v2\n0000000000000001,3ff0000000000000\n",
        )
        .unwrap();
        let cache = ResultCache::new();
        let err = cache.load(&bad).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(cache.stats().entries, 0, "nothing merged from a bad file");
        std::fs::remove_file(bad).ok();

        // A valid file from a different schema version loads nothing.
        let stale = dir.join("mr2-scenario-cache-staleschema.txt");
        std::fs::write(
            &stale,
            format!(
                "mr2-scenario-cache v1\nschema {:016x}\n0000000000000001,3ff0000000000000\n",
                schema_version() ^ 1
            ),
        )
        .unwrap();
        assert_eq!(cache.load(&stale).unwrap(), 0);
        assert_eq!(cache.stats().entries, 0);
        std::fs::remove_file(stale).ok();
    }

    #[test]
    fn load_respects_the_size_bound() {
        let cache = ResultCache::new();
        for k in 0..10 {
            cache.get_or_compute(k, || vec![k as f64]);
        }
        let path = std::env::temp_dir().join("mr2-scenario-cache-bound.txt");
        cache.save(&path).unwrap();
        let bounded = ResultCache::with_capacity(4);
        bounded.load(&path).unwrap();
        let s = bounded.stats();
        assert_eq!(s.entries, 4, "loading cannot overflow the bound");
        assert!(s.evictions >= 6);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn concurrent_identical_requests_evaluate_exactly_once() {
        // The coalescing guarantee: N concurrent get_or_compute calls on
        // one key execute the compute closure exactly once, whatever the
        // interleaving. The barrier maximizes overlap; the slow compute
        // keeps the flight in progress while the waiters arrive.
        let cache = Arc::new(ResultCache::new());
        let executions = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let results: Vec<Arc<Vec<f64>>> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.get_or_compute(7, || {
                            executions.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            vec![3.25]
                        })
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(executions.load(Ordering::SeqCst), 1, "one evaluation");
        for r in &results {
            assert!(Arc::ptr_eq(r, &results[0]), "all callers share the record");
        }
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.misses, 1, "the computing caller is the only miss");
        assert_eq!(s.hits + s.coalesced, 7, "everyone else joined or hit");
    }

    #[test]
    fn panicking_compute_does_not_wedge_waiters() {
        let cache = Arc::new(ResultCache::new());
        let barrier = Barrier::new(2);
        let (first, second) = std::thread::scope(|s| {
            let panicker = s.spawn(|| {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compute(9, || {
                        barrier.wait(); // a waiter is (about to be) queued
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("evaluation failed")
                    })
                }));
                r.is_err()
            });
            let waiter = s.spawn(|| {
                barrier.wait();
                cache.get_or_compute(9, || vec![4.5])
            });
            (panicker.join().unwrap(), waiter.join().unwrap())
        });
        assert!(first, "the computing caller observed its own panic");
        assert_eq!(*second, vec![4.5], "the waiter recovered by recomputing");
        assert_eq!(cache.stats().entries, 1);
    }
}
