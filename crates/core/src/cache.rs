//! Keyed plan reuse: [`PlanKey`] and the bounded, concurrent, sharded LRU
//! [`ShardedPlanCache`].
//!
//! Serving workloads compile the *same* (statement, shapes + formats,
//! machine, schedule) bundle over and over with fresh operand values.
//! Because [`Plan`]s are data-independent, one lowering can serve every
//! such request: the cache canonicalizes the compile-relevant inputs into
//! a [`PlanKey`], hands back a shared `Arc<dyn Plan>` on a hit, and
//! plans-and-inserts on a miss. Hit/miss/eviction statistics are
//! surfaced through [`CacheStats`], which [`ShardedPlanCache::annotate`]
//! attaches to any [`Report`].
//!
//! # What a key covers
//!
//! A [`PlanKey`] hashes exactly the inputs lowering depends on — and
//! nothing the data may vary: the backend's name *and* its whole value
//! in `Debug` form (a supertrait of [`Backend`]: mode, compile options,
//! collective configuration, cost-model parameters, transport, every
//! lint's level — whatever fields the backend has, with no list to keep),
//! the statement text, every tensor's name/shape/format, the machine spec
//! and grid hierarchy, and the schedule's stable
//! [`Display`](std::fmt::Display) form. Two problems differing only in
//! initializers (values, seeds, densities) share a key; anything that
//! changes the plan — including reconfiguring the backend — changes the
//! key.

use crate::backend::{Backend, BackendError};
use crate::plan::Plan;
use crate::problem::Problem;
use crate::report::Report;
use crate::schedule::Schedule;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex};

/// A canonical identity for one compilation: the backend (its name and
/// its `Debug` form), the statement, the tensors (shape, level formats,
/// distribution, memory), the machine (spec, grid hierarchy, processor
/// kind), and the schedule's stable `Display` form. Equality is exact
/// (the full canonical text is kept); the 64-bit FNV-1a digest only
/// accelerates hashing.
#[derive(Clone, Debug, Eq)]
pub struct PlanKey {
    canonical: String,
    digest: u64,
}

impl PlanKey {
    /// The key of compiling `problem` with `schedule` on `backend` —
    /// covering the backend's name and its `Debug` form, so two instances
    /// of one backend that differ in any field never collide, and two
    /// that print alike (and so behave alike) share plans.
    pub fn new(backend: &dyn Backend, problem: &Problem, schedule: &Schedule) -> Self {
        let mut c = String::new();
        let _ = write!(c, "backend={}[{backend:?}];stmt=", backend.name());
        match problem.assignment() {
            Some(a) => {
                let _ = write!(c, "{a}");
            }
            None => c.push_str("<none>"),
        }
        c.push_str(";tensors=");
        for (name, spec) in problem.tensors() {
            let _ = write!(c, "{name}:{:?}:", spec.dims);
            // Normalize levels to one character per dimension: an empty
            // `levels` vector and an explicit all-dense one describe the
            // same storage, so they must share a key.
            for d in 0..spec.dims.len() {
                c.push(match spec.format.level(d) {
                    distal_format::LevelFormat::Dense => 'd',
                    distal_format::LevelFormat::Compressed => 's',
                });
            }
            let _ = write!(c, ":{:?}:[", spec.format.mem);
            for d in &spec.format.distributions {
                let _ = write!(c, "{d},");
            }
            c.push_str("];");
        }
        let machine = problem.machine();
        let _ = write!(c, "machine=proc:{:?};levels:", machine.proc_kind);
        for level in machine.hierarchy.levels() {
            let _ = write!(c, "{:?},", level.dims());
        }
        // The physical model prices plans (model mode, α-β inputs), so it
        // is compile-relevant; Debug covers every field.
        let _ = write!(c, ";spec={:?}", problem.spec());
        let _ = write!(c, ";schedule={schedule}");
        let digest = fnv1a(c.as_bytes());
        PlanKey {
            canonical: c,
            digest,
        }
    }

    /// The 64-bit FNV-1a digest of the canonical text — the same in every
    /// run of one build (unlike `DefaultHasher`), which is all an
    /// in-process cache needs. Not a persistent identifier: the text
    /// embeds the backend's `Debug` form, which a toolchain or a field
    /// added to the backend may print differently.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }
}

impl PartialEq for PlanKey {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.canonical == other.canonical
    }
}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

impl fmt::Display for PlanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan:{:016x}", self.digest)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hit/miss/eviction counters of a [`ShardedPlanCache`], surfaced in
/// [`Report::cache`].
///
/// A snapshot is *coherent*: it is taken under the one lock every counter
/// update holds, so no update is ever half-seen.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that reused a cached plan.
    pub hits: u64,
    /// Lookups that planned fresh and inserted the result. Lookups whose
    /// planning *failed* count in neither bucket — nothing was cached,
    /// and retrying the same failing key should not depress the hit
    /// rate.
    pub misses: u64,
    /// Plans dropped to respect the capacity bound.
    pub evictions: u64,
    /// Plans currently cached.
    pub len: usize,
    /// Capacity bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Counted lookups: `hits + misses` (failed plannings count in
    /// neither bucket).
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits per lookup (0.0 when no lookups happened).
    pub(crate) fn hit_rate(&self) -> f64 {
        if self.requests() == 0 {
            return 0.0;
        }
        self.hits as f64 / self.requests() as f64
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses / {} evictions over {} requests ({}/{} cached, {:.0}% hit rate)",
            self.hits,
            self.misses,
            self.evictions,
            self.requests(),
            self.len,
            self.capacity,
            self.hit_rate() * 100.0
        )
    }
}

struct Entry {
    plan: Arc<dyn Plan>,
    last_used: u64,
}

/// One in-flight planning: the leader publishes its result here and
/// followers block on the condvar instead of re-running `Backend::plan`.
struct Flight {
    result: Mutex<Option<Result<Arc<dyn Plan>, BackendError>>>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<Arc<dyn Plan>, BackendError>) {
        let mut slot = self.result.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(result);
        }
        drop(slot);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Arc<dyn Plan>, BackendError> {
        let mut slot = self.result.lock().expect("poisoned flight slot");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.ready.wait(slot).expect("poisoned flight slot");
        }
    }
}

/// One shard: a bounded LRU plus its in-flight plannings. It keeps no
/// counters — hits, misses, evictions and len live once, on the cache.
struct Shard {
    entries: HashMap<PlanKey, Entry>,
    tick: u64,
    capacity: usize,
    inflight: HashMap<PlanKey, Arc<Flight>>,
}

impl Shard {
    fn get(&mut self, key: &PlanKey) -> Option<Arc<dyn Plan>> {
        self.tick += 1;
        let e = self.entries.get_mut(key)?;
        e.last_used = self.tick;
        Some(Arc::clone(&e.plan))
    }

    /// Inserts a plan, evicting the least-recently-used entry when full.
    /// Returns `(evictions, len delta)` for the cache's counters.
    fn insert(&mut self, key: PlanKey, plan: Arc<dyn Plan>) -> (u64, i64) {
        self.tick += 1;
        let mut evicted = 0;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
                evicted = 1;
            }
        }
        let entry = Entry {
            plan,
            last_used: self.tick,
        };
        let grew = self.entries.insert(key, entry).is_none();
        (evicted, i64::from(grew) - evicted as i64)
    }
}

/// A bounded LRU cache of [`Plan`]s keyed by [`PlanKey`], safe to share
/// across threads.
///
/// The cache owns no backend: [`ShardedPlanCache::get_or_plan`] takes the
/// backend per call, so one cache can serve plans for several targets
/// (keys embed the backend name and configuration, so they never
/// collide).
///
/// Keys land on one of N shards by their 64-bit digest; each shard is an
/// independent bounded LRU behind its own mutex, so lookups of unrelated
/// keys never contend (`new(capacity, 1)` is the strict single-LRU case).
/// The counters sit behind one more mutex, taken inside a shard lock
/// whenever they move, so a [`ShardedPlanCache::stats`] snapshot is
/// coherent by construction.
///
/// # Single-flight
///
/// A miss stampede — many threads asking for the same cold key — runs
/// [`Backend::plan`] exactly once: the first thread in (the *leader*)
/// registers an in-flight entry and plans **outside** the shard lock;
/// everyone else arriving before the plan lands waits on that entry and
/// receives the shared `Arc<dyn Plan>` (or the leader's error, cloned).
/// The leader's lookup counts the one miss; followers count hits, so
/// after a cold stampede `misses` equals the number of *distinct* keys
/// requested, regardless of thread count.
pub struct ShardedPlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Hits, misses, evictions and len (`capacity` is left at 0 here).
    counters: Mutex<CacheStats>,
    per_shard_capacity: usize,
}

impl ShardedPlanCache {
    /// A cache of `shards` independent LRU shards holding `capacity`
    /// plans (minimum 1) in total. `shards` is clamped to `1..=capacity`
    /// and the per-shard bound is `ceil(capacity / shards)`, so the
    /// enforced total — [`CacheStats::capacity`] — exceeds the requested
    /// figure by at most `shards - 1`.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let per_shard_capacity = capacity.div_ceil(shards);
        ShardedPlanCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        tick: 0,
                        capacity: per_shard_capacity,
                        inflight: HashMap::new(),
                    })
                })
                .collect(),
            counters: Mutex::new(CacheStats::default()),
            per_shard_capacity,
        }
    }

    /// Total capacity actually enforced (`shards * per-shard bound`).
    pub(crate) fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    fn shard_of(&self, key: &PlanKey) -> &Mutex<Shard> {
        &self.shards[(key.digest() % self.shards.len() as u64) as usize]
    }

    /// Records counter deltas. Callers hold the owning shard's lock, so
    /// the counters lock is only ever taken inside one.
    fn record(&self, hits: u64, misses: u64, evictions: u64, len_delta: i64) {
        let mut c = self.counters.lock().expect("poisoned cache counters");
        c.hits += hits;
        c.misses += misses;
        c.evictions += evictions;
        c.len = (c.len as i64 + len_delta) as usize;
    }

    /// The plan for (backend, problem, schedule): cached if present,
    /// planned once otherwise — even under a stampede (see the type-level
    /// docs). This is the serving front door: on a hit, zero
    /// schedule-application or lowering work runs. The shard lock covers
    /// only lookup and bookkeeping, never `Backend::plan`.
    ///
    /// # Errors
    ///
    /// Propagates [`Backend::plan`] errors (followers of a failed flight
    /// receive a clone). Nothing is inserted then and no counter moves: a
    /// plan-failing key retried N times is N errors, not N misses.
    pub fn get_or_plan(
        &self,
        backend: &dyn Backend,
        problem: &Problem,
        schedule: &Schedule,
    ) -> Result<Arc<dyn Plan>, BackendError> {
        let key = PlanKey::new(backend, problem, schedule);
        self.get_or_plan_keyed(&key, || backend.plan(problem, schedule).map(Arc::from))
    }

    /// [`ShardedPlanCache::get_or_plan`] with a caller-computed key and
    /// planning closure — the serving engine's entry point, where the key
    /// is computed once, at admission.
    pub fn get_or_plan_keyed(
        &self,
        key: &PlanKey,
        plan: impl FnOnce() -> Result<Arc<dyn Plan>, BackendError>,
    ) -> Result<Arc<dyn Plan>, BackendError> {
        let shard = self.shard_of(key);
        let flight = {
            let mut s = shard.lock().expect("poisoned cache shard");
            if let Some(found) = s.get(key) {
                self.record(1, 0, 0, 0);
                return Ok(found);
            }
            match s.inflight.get(key) {
                Some(flight) => Arc::clone(flight), // follower: wait below
                None => {
                    // Leader: register the flight, then plan with the
                    // shard unlocked so other keys keep flowing.
                    let flight = Arc::new(Flight::new());
                    s.inflight.insert(key.clone(), Arc::clone(&flight));
                    drop(s);
                    let mut guard = FlightGuard {
                        cache: self,
                        shard,
                        key,
                        flight: &flight,
                        landed: false,
                    };
                    let result: Result<Arc<dyn Plan>, BackendError> = plan();
                    guard.land(result.clone());
                    return result;
                }
            }
        };
        let result = flight.wait()?;
        // The flight succeeded; this lookup is a hit on the shared plan.
        let _s = shard.lock().expect("poisoned cache shard");
        self.record(1, 0, 0, 0);
        Ok(result)
    }

    /// A coherent snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            capacity: self.capacity(),
            ..*self.counters.lock().expect("poisoned cache counters")
        }
    }

    /// Attaches a coherent stats snapshot to a report ([`Report::cache`]).
    pub fn annotate(&self, report: &mut Report) {
        report.cache = Some(self.stats());
    }
}

impl fmt::Debug for ShardedPlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedPlanCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Publishes the leader's planning result exactly once — including when
/// the planning closure panics, so followers see an error instead of
/// blocking forever on a flight nobody will land.
struct FlightGuard<'a> {
    cache: &'a ShardedPlanCache,
    shard: &'a Mutex<Shard>,
    key: &'a PlanKey,
    flight: &'a Arc<Flight>,
    landed: bool,
}

impl FlightGuard<'_> {
    fn land(&mut self, result: Result<Arc<dyn Plan>, BackendError>) {
        self.landed = true;
        let mut s = self.shard.lock().expect("poisoned cache shard");
        s.inflight.remove(self.key);
        if let Ok(plan) = &result {
            let (evictions, len_delta) = s.insert(self.key.clone(), Arc::clone(plan));
            self.cache.record(0, 1, evictions, len_delta);
        }
        drop(s);
        self.flight.publish(result);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.landed {
            return;
        }
        // The planning closure panicked. Unregister the flight and fail
        // the followers; counters stay untouched, as for any failed plan.
        if let Ok(mut s) = self.shard.lock() {
            s.inflight.remove(self.key);
        }
        self.flight.publish(Err(BackendError::Backend(
            "planning panicked mid-flight".to_string(),
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RuntimeBackend;
    use crate::machine::DistalMachine;
    use crate::plan::Bindings;
    use crate::problem::TensorSpec;
    use distal_format::Format;
    use distal_machine::grid::Grid;
    use distal_machine::spec::{MachineSpec, MemKind, ProcKind};

    /// No statement -> `RuntimeBackend::plan` errors.
    fn broken_problem() -> Problem {
        let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
        Problem::new(MachineSpec::small(2), machine)
    }

    /// An `n x n` matmul over tensors of one format.
    fn problem_in(n: i64, f: Format) -> Problem {
        let mut p = broken_problem();
        p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
        for t in ["A", "B", "C"] {
            p.tensor(TensorSpec::new(t, vec![n, n], f.clone())).unwrap();
        }
        p
    }

    fn problem(n: i64) -> Problem {
        problem_in(n, Format::parse("xy->xy", MemKind::Sys).unwrap())
    }

    /// Every case below runs on the strict single-LRU shape and on a
    /// sharded one.
    const SHAPES: [(usize, usize); 2] = [(8, 1), (8, 4)];

    /// Holds after every case: snapshots are coherent, the bound is
    /// respected, and every miss either still sits in the cache or was
    /// evicted.
    fn check_invariants(cache: &ShardedPlanCache) {
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, stats.requests());
        assert_eq!(stats.misses, stats.evictions + stats.len as u64);
        assert!(stats.len <= cache.capacity());
    }

    #[test]
    fn keys_ignore_data_but_see_compile_inputs() {
        let key = |b: &RuntimeBackend, p: &Problem, s: &Schedule| PlanKey::new(b, p, s);
        let mut p1 = problem(8);
        let mut p2 = problem(8);
        p1.fill_random("B", 1).unwrap();
        p2.fill_random("B", 999).unwrap(); // data only — same key
        let s = Schedule::summa(2, 2, 4);
        let functional = RuntimeBackend::functional();
        assert_eq!(key(&functional, &p1, &s), key(&functional, &p2, &s));
        // Shapes, schedules, and backend configuration all split keys.
        assert_ne!(
            key(&functional, &p1, &s),
            key(&functional, &problem(16), &s)
        );
        let s2 = Schedule::summa(2, 2, 8);
        assert_ne!(key(&functional, &p1, &s), key(&functional, &p1, &s2));
        // Same backend name, different configuration: a model-mode plan
        // must never be served to a functional caller (or vice versa).
        let model = RuntimeBackend::model();
        assert_ne!(key(&functional, &p1, &s), key(&model, &p1, &s));

        // `levels: []` and an explicit all-dense string describe the same
        // storage, so the key must not split them; a genuinely compressed
        // level still does.
        let levels = |l| Format::parse_levels("xy->xy", l, MemKind::Sys).unwrap();
        let dense = problem_in(8, levels("dd"));
        assert_eq!(key(&functional, &p1, &s), key(&functional, &dense, &s));
        let mut compressed = problem(8);
        compressed
            .tensor(TensorSpec::new("B", vec![8, 8], levels("ds")))
            .unwrap();
        assert_ne!(key(&functional, &p1, &s), key(&functional, &compressed, &s));
    }

    #[test]
    fn cache_hits_and_serves_bindable_plans() {
        let p = problem(8);
        let s = Schedule::summa(2, 2, 4);
        let backend = RuntimeBackend::functional();
        for (capacity, shards) in SHAPES {
            let cache = ShardedPlanCache::new(capacity, shards);
            let plan1 = cache.get_or_plan(&backend, &p, &s).unwrap();
            let plan2 = cache.get_or_plan(&backend, &p, &s).unwrap();
            assert!(Arc::ptr_eq(&plan1, &plan2));
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
            assert!((stats.hit_rate() - 0.5).abs() < 1e-12);

            let mut b = Bindings::new();
            b.fill_random("B", 1).fill_random("C", 2);
            let mut inst = plan2.bind(&b).unwrap();
            inst.run().unwrap();
            assert_eq!(inst.read("A").unwrap().len(), 64);

            let mut report = Report::empty("runtime", crate::report::Provenance::Measured);
            cache.annotate(&mut report);
            assert_eq!(report.cache.unwrap().hits, 1);
            check_invariants(&cache);
        }
    }

    #[test]
    fn lru_evicts_oldest_within_a_shard() {
        let backend = RuntimeBackend::model();
        let p = problem(16);
        // Two plans per shard: 2 x 1 and 8 over 4.
        for (capacity, shards) in [(2, 1), (8, 4)] {
            let cache = ShardedPlanCache::new(capacity, shards);
            // Three keys of one shard (on a single shard: the first three).
            let mut same_shard: Vec<Schedule> = Vec::new();
            for chunk in 1..=16 {
                let s = Schedule::summa(2, 2, chunk);
                let digest = PlanKey::new(&backend, &p, &s).digest();
                if digest.is_multiple_of(cache.shards.len() as u64) {
                    same_shard.push(s);
                }
            }
            let [a, b, c] = &same_shard[..3] else {
                panic!("16 keys over {shards} shards put fewer than 3 on shard 0");
            };
            cache.get_or_plan(&backend, &p, a).unwrap();
            cache.get_or_plan(&backend, &p, b).unwrap();
            // Touch `a` so `b` is the LRU victim.
            cache.get_or_plan(&backend, &p, a).unwrap();
            cache.get_or_plan(&backend, &p, c).unwrap();
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 1));
            assert_eq!(cache.stats().len, 2);
            check_invariants(&cache);
            // `a` survived, `b` did not.
            cache.get_or_plan(&backend, &p, a).unwrap();
            assert_eq!(cache.stats().hits, 2);
            cache.get_or_plan(&backend, &p, b).unwrap();
            assert_eq!(cache.stats().misses, 4);
            check_invariants(&cache);
        }
    }

    #[test]
    fn sharded_stampede_one_key_plans_exactly_once() {
        use std::sync::Barrier;
        const THREADS: usize = 16;
        let cache = ShardedPlanCache::new(8, 4);
        let backend = RuntimeBackend::functional();
        let p = problem(8);
        let s = Schedule::summa(2, 2, 4);
        let barrier = Barrier::new(THREADS);
        // `lowering_count` is thread-local: summing each thread's delta
        // across the stampede counts every lowering wherever it ran.
        let lowered: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let before = crate::lowering_count();
                        barrier.wait();
                        cache.get_or_plan(&backend, &p, &s).unwrap();
                        crate::lowering_count() - before
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(lowered, 1, "single-flight must lower exactly once");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "misses == distinct keys");
        assert_eq!(stats.hits, THREADS as u64 - 1);
        assert_eq!(stats.requests(), THREADS as u64);
        check_invariants(&cache);
    }

    #[test]
    fn sharded_eviction_stays_bounded_under_concurrent_insert() {
        // The enforced bound never exceeds the request by more than
        // `shards - 1`; asking for more shards than plans clamps.
        for (capacity, shards) in [(4, 8), (4, 3), (5, 2), (1, 4), (0, 0)] {
            let cache = ShardedPlanCache::new(capacity, shards);
            assert!(cache.shards.len() <= capacity.max(1));
            assert!(cache.capacity() >= capacity);
            assert!(cache.capacity() < capacity.max(1) + cache.shards.len());
        }
        assert_eq!(ShardedPlanCache::new(4, 8).capacity(), 4);

        let cache = ShardedPlanCache::new(4, 2);
        assert_eq!(cache.capacity(), 4);
        let backend = RuntimeBackend::model();
        let p = problem(16);
        // 12 distinct keys (chunk sizes) racing into a 2-shard cache that
        // holds 4 plans total.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for chunk in 1..=12 {
                        let s = Schedule::summa(2, 2, chunk);
                        cache.get_or_plan(&backend, &p, &s).unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.len <= 4);
        assert_eq!(stats.requests(), 48);
        check_invariants(&cache);
    }

    #[test]
    fn failed_plans_fail_followers_cache_nothing_and_count_nothing() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let backend = RuntimeBackend::functional();
        let broken = broken_problem();
        let s = Schedule::summa(2, 2, 4);
        for (capacity, shards) in SHAPES {
            let cache = ShardedPlanCache::new(capacity, shards);
            // Retrying must not inflate misses or depress the hit rate...
            for _ in 0..3 {
                assert!(cache.get_or_plan(&backend, &broken, &s).is_err());
            }
            // ...and neither must a stampede on the failing key.
            let barrier = Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        barrier.wait();
                        assert!(cache.get_or_plan(&backend, &broken, &s).is_err());
                    });
                }
            });
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses, stats.requests()), (0, 0, 0));
            assert_eq!(stats.hit_rate(), 0.0);
            assert_eq!(cache.stats().len, 0);
            // `requests` counts hits plus misses, never the failures.
            for _ in 0..3 {
                cache.get_or_plan(&backend, &problem(8), &s).unwrap();
            }
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses, stats.requests()), (2, 1, 3));
            check_invariants(&cache);
        }
    }

    #[test]
    fn sharded_stats_snapshots_stay_coherent_under_load() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cache = ShardedPlanCache::new(4, 4);
        let backend = RuntimeBackend::model();
        let p = problem(8);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (cache, backend, p, stop) = (&cache, &backend, &p, &stop);
                scope.spawn(move || {
                    let mut chunk = 1 + t;
                    while !stop.load(Ordering::Relaxed) {
                        let s = Schedule::summa(2, 2, chunk);
                        cache.get_or_plan(backend, p, &s).unwrap();
                        chunk = chunk % 8 + 1;
                    }
                });
            }
            for _ in 0..200 {
                let stats = cache.stats();
                assert_eq!(
                    stats.hits + stats.misses,
                    stats.requests(),
                    "torn stats snapshot: {stats:?}"
                );
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
