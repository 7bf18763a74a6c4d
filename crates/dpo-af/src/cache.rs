//! Verification memoization: duplicate responses skip model checking.
//!
//! Sampled step lists repeat heavily — a handful of high-probability
//! phrasings dominate the policy's output, and the same response shows
//! up again and again across rounds, iterations and checkpoint
//! evaluations. Formal scoring is a pure function of the decoded
//! response text and the scenario it is checked in (the task prompt only
//! labels the controller and diagnostics; it never reaches the product
//! automaton), so the pipeline caches scores — the number of satisfied
//! specifications — keyed by `(scenario kind, response text)`.
//!
//! **One lock.** The table, its recency list and its hit/miss/eviction
//! counts live in one `Lru` behind one [`Mutex`], and the `Lru` is
//! reachable only through the guard. Each critical section is one hash
//! probe plus O(1) list relinking, so a score served from the wrong
//! entry, a bound overrun or a list/map mismatch cannot arise from any
//! interleaving, and `len()` and the `verify.cache_entries` gauge are
//! exact. The obskit mirror is the `verify.cache_hits` /
//! `verify.cache_misses` / `verify.cache_evictions` counters and the
//! `verify.cache_entries` gauge.
//!
//! **Bounded, least-recently-used.** The pipeline's cache holds at most
//! 65 536 verdicts. Inserting a fresh key into a full cache evicts the
//! least-recently-used entry; both hits and overwrites refresh recency.
//! Recency is a slab-backed doubly-linked list (slot indices, not
//! pointers), so lookup, insert, touch and evict are all O(1). An
//! evicted verdict is not an error — the next lookup misses and
//! recomputes, and because verdicts are pure, eviction never changes
//! pipeline artifacts (the pipeline tests assert this at capacity 1).
//!
//! **Invalidation:** there is none, by design. A cache lives inside one
//! [`crate::pipeline::DpoAf`], whose rule book, lexicon and scenario
//! models are fixed for the pipeline's lifetime; a cached verdict can
//! therefore never go stale. Changing the domain means building a new
//! pipeline — which starts with an empty cache.

use drivesim::ScenarioKind;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Resident-verdict bound of the pipeline's cache. It keeps a
/// long-running service's cache a working set, not a leak.
pub(crate) const CAPACITY: usize = 1 << 16;

type Key = (ScenarioKind, String);

/// Sentinel slot index terminating the recency list.
const NIL: usize = usize::MAX;

/// One resident score plus its recency-list links.
#[derive(Debug)]
struct Entry {
    key: Key,
    val: usize,
    prev: usize,
    next: usize,
}

/// The bounded table and its counters. See the module docs.
#[derive(Debug)]
struct Lru {
    capacity: usize,
    /// Key → slot index into `slots`.
    map: HashMap<Key, usize>,
    /// Slab of entries; linked through `prev`/`next` in recency order.
    slots: Vec<Entry>,
    /// Slot indices freed by eviction, reused before growing the slab.
    free: Vec<usize>,
    /// Most-recently-used slot (`NIL` when empty).
    head: usize,
    /// Least-recently-used slot (`NIL` when empty) — the eviction victim.
    tail: usize,
    hits: u64,
    misses: u64,
    evicted: u64,
}

impl Lru {
    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Links slot `i` at the front (most-recently-used end).
    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Marks slot `i` as most recently used.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }
}

/// A bounded `(scenario, text) → score` memo table behind one lock.
#[derive(Debug)]
pub struct VerifyCache {
    lru: Mutex<Lru>,
}

impl VerifyCache {
    /// An empty cache holding at most `capacity` verdicts (0 is treated
    /// as 1).
    pub fn new(capacity: usize) -> VerifyCache {
        VerifyCache {
            lru: Mutex::new(Lru {
                capacity: capacity.max(1),
                map: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                hits: 0,
                misses: 0,
                evicted: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        // Nothing inside a critical section panics short of a bug in
        // this module (no user code runs under the lock), so a poisoned
        // guard still holds a consistent table.
        match self.lru.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up a memoized score, marking it most recently used and
    /// updating the hit/miss counters.
    pub fn lookup(&self, scenario: ScenarioKind, text: &str) -> Option<usize> {
        let key = (scenario, text.to_owned());
        let mut lru = self.lock();
        match lru.map.get(&key) {
            Some(&i) => {
                lru.touch(i);
                lru.hits += 1;
                obskit::counter_add("verify.cache_hits", 1);
                Some(lru.slots[i].val)
            }
            None => {
                lru.misses += 1;
                obskit::counter_add("verify.cache_misses", 1);
                None
            }
        }
    }

    /// Memoizes a freshly computed score, marking it most recently
    /// used. Scores are deterministic, so a racing double-insert of
    /// the same key is an idempotent overwrite. A fresh key sets the
    /// `verify.cache_entries` gauge; one that lands in a full cache
    /// evicts the least-recently-used entry and bumps the
    /// `verify.cache_evictions` counter.
    pub fn insert(&self, scenario: ScenarioKind, text: &str, score: usize) {
        let key = (scenario, text.to_owned());
        let mut guard = self.lock();
        let lru = &mut *guard;
        if let Some(&i) = lru.map.get(&key) {
            lru.slots[i].val = score;
            lru.touch(i);
            return;
        }
        let entry = Entry {
            key: key.clone(),
            val: score,
            prev: NIL,
            next: NIL,
        };
        let i = match lru.free.pop() {
            Some(i) => {
                lru.slots[i] = entry;
                i
            }
            None => {
                lru.slots.push(entry);
                lru.slots.len() - 1
            }
        };
        lru.push_front(i);
        lru.map.insert(key, i);
        if lru.map.len() > lru.capacity {
            // Over the bound the table holds ≥ 2 entries, so the tail is
            // a real slot and never the key just linked at the head.
            let t = lru.tail;
            lru.unlink(t);
            lru.map.remove(&lru.slots[t].key);
            lru.free.push(t);
            lru.evicted += 1;
            obskit::counter_add("verify.cache_evictions", 1);
        }
        obskit::gauge_set("verify.cache_entries", lru.map.len() as f64);
    }

    /// `(hits, misses)` so far — independent of the global recorder.
    pub fn stats(&self) -> (u64, u64) {
        let lru = self.lock();
        (lru.hits, lru.misses)
    }

    /// Entries displaced by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.lock().evicted
    }

    /// Number of distinct memoized `(scenario, text)` keys currently
    /// resident.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when nothing is currently memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    const S: ScenarioKind = ScenarioKind::TrafficLight;

    /// The score the racing tests write for key `n`: a function of the
    /// key that differs from every other key's score and from `n`
    /// itself, so a slot that serves another entry's value is
    /// detectable.
    fn score(n: usize) -> usize {
        31 * n + 17
    }

    fn key(n: usize) -> String {
        format!("plan {n} .")
    }

    fn insert(cache: &VerifyCache, n: usize, v: usize) {
        cache.insert(S, &key(n), v);
    }

    fn get(cache: &VerifyCache, n: usize) -> Option<usize> {
        cache.lookup(S, &key(n))
    }

    #[test]
    fn lookup_insert_roundtrip_and_stats() {
        let cache = VerifyCache::new(CAPACITY);
        let score = 12;
        assert_eq!(cache.lookup(ScenarioKind::TrafficLight, "stop ."), None);
        cache.insert(ScenarioKind::TrafficLight, "stop .", score);
        assert_eq!(
            cache.lookup(ScenarioKind::TrafficLight, "stop ."),
            Some(score)
        );
        // Same text, different scenario: a distinct key.
        assert_eq!(cache.lookup(ScenarioKind::Roundabout, "stop ."), None);
        assert_eq!(cache.stats(), (1, 2));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        // Re-inserting an existing key does not inflate the entry count.
        cache.insert(ScenarioKind::TrafficLight, "stop .", score);
        assert_eq!(cache.len(), 1);
        cache.insert(ScenarioKind::Roundabout, "stop .", score);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
    }

    /// Concurrent mixed lookup/insert traffic stays consistent.
    #[test]
    fn concurrent_access_stays_consistent() {
        let cache = VerifyCache::new(CAPACITY);
        let texts: Vec<(usize, String)> =
            (0..200).map(|i| (i, format!("step list {i} ."))).collect();
        std::thread::scope(|s| {
            let cache = &cache;
            for chunk in texts.chunks(50) {
                s.spawn(move || {
                    for (i, t) in chunk {
                        cache.insert(ScenarioKind::WideMedian, t, score(*i));
                        assert_eq!(
                            cache.lookup(ScenarioKind::WideMedian, t),
                            Some(score(*i)),
                            "{t}"
                        );
                    }
                });
            }
        });
        assert_eq!(cache.len(), 200);
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 200);
        assert_eq!(misses, 0);
        assert_eq!(cache.evictions(), 0);
    }

    /// A bounded cache holds exactly its capacity, counts its evictions
    /// and keeps serving correct verdicts — under insert-only traffic
    /// the newest keys survive, and an evicted key just misses and can
    /// be re-inserted.
    #[test]
    fn tiny_capacity_evicts_lru_and_keeps_serving() {
        let cache = VerifyCache::new(16);
        for n in 0..100 {
            insert(&cache, n, n % 16);
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.evictions(), 84);
        for n in 0..100 {
            let expect = (n >= 84).then_some(n % 16);
            assert_eq!(get(&cache, n), expect, "key {n}");
        }
        // An evicted key can come back; the table never wedges.
        insert(&cache, 0, 0);
        assert_eq!(get(&cache, 0), Some(0));
        assert_eq!(cache.len(), 16);
    }

    #[test]
    fn eviction_reported_per_insert() {
        let cache = VerifyCache::new(2);
        insert(&cache, 1, 1);
        insert(&cache, 2, 2);
        assert_eq!(cache.evictions(), 0);
        insert(&cache, 3, 3);
        assert_eq!(cache.evictions(), 1);
        // Overwrites never evict, even at capacity.
        insert(&cache, 3, 4);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn get_touches_recency() {
        let cache = VerifyCache::new(2);
        insert(&cache, 1, 10);
        insert(&cache, 2, 20);
        // Touch key 1: key 2 becomes the LRU victim.
        assert_eq!(get(&cache, 1), Some(10));
        insert(&cache, 3, 30);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(get(&cache, 1), Some(10));
        assert_eq!(get(&cache, 2), None);
        assert_eq!(get(&cache, 3), Some(30));
    }

    #[test]
    fn overwrite_touches_recency() {
        let cache = VerifyCache::new(2);
        insert(&cache, 1, 10);
        insert(&cache, 2, 20);
        // Overwriting key 1 refreshes it: key 2 becomes the victim.
        insert(&cache, 1, 11);
        insert(&cache, 3, 30);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(get(&cache, 1), Some(11));
        assert_eq!(get(&cache, 2), None);
    }

    #[test]
    fn evicted_slots_are_reused() {
        let cache = VerifyCache::new(2);
        for n in 0..100 {
            insert(&cache, n, n);
        }
        assert_eq!(cache.len(), 2);
        // A fresh insert links its slot before the eviction frees one.
        assert_eq!(cache.lock().slots.len(), 3);
        assert_eq!(get(&cache, 99), Some(99));
        assert_eq!(get(&cache, 98), Some(98));
    }

    /// Long mixed workloads keep the linked list and map consistent.
    #[test]
    fn mixed_workload_stays_consistent() {
        let cache = VerifyCache::new(6);
        for round in 0..50 {
            for n in 0..10 {
                if (round + n) % 3 == 0 {
                    let _ = get(&cache, n);
                } else {
                    insert(&cache, n, round * 100 + n);
                }
            }
            assert!(cache.len() <= 6, "len {} round {round}", cache.len());
        }
        // Every resident key returns the value of its last insert.
        for n in 0..10 {
            if let Some(v) = get(&cache, n) {
                assert_eq!(v % 100, n);
            }
        }
    }

    /// Two threads insert different keys into a capacity-1 cache and
    /// read back, released together by a barrier in every round: every
    /// read returns its own key's score, the bound holds exactly, and
    /// one intact entry survives.
    #[test]
    fn racing_inserts_never_tear_or_exceed_capacity() {
        for _ in 0..500 {
            let cache = VerifyCache::new(1);
            let start = Barrier::new(2);
            std::thread::scope(|s| {
                let (cache, start) = (&cache, &start);
                let writer = |n: usize| {
                    move || {
                        start.wait();
                        insert(cache, n, score(n));
                        for k in [1, 2] {
                            if let Some(v) = get(cache, k) {
                                assert_eq!(v, score(k), "key {k}");
                            }
                        }
                    }
                };
                s.spawn(writer(1));
                s.spawn(writer(2));
            });
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.evictions(), 1);
            match (1..=2).find_map(|k| get(&cache, k).map(|v| (k, v))) {
                Some((k, v)) => assert_eq!(v, score(k), "key {k}"),
                None => panic!("a capacity-1 cache lost both entries"),
            }
        }
    }

    /// A lookup that touches the LRU seed races a fresh insert that must
    /// evict one: the fresh key always lands, the bound holds, and
    /// exactly one seed survives — key 1 if the touch came first (key 2
    /// was then the victim), key 2 if the insert did.
    #[test]
    fn touch_racing_evicting_insert_keeps_exactly_one_seed() {
        for _ in 0..500 {
            let cache = VerifyCache::new(2);
            insert(&cache, 1, score(1));
            insert(&cache, 2, score(2));
            let start = Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    if let Some(v) = get(&cache, 1) {
                        assert_eq!(v, score(1));
                    }
                });
                s.spawn(|| {
                    start.wait();
                    insert(&cache, 3, score(3));
                });
            });
            assert_eq!(cache.len(), 2);
            assert_eq!(get(&cache, 3), Some(score(3)));
            let seed1 = get(&cache, 1).inspect(|&v| assert_eq!(v, score(1)));
            let seed2 = get(&cache, 2).inspect(|&v| assert_eq!(v, score(2)));
            assert!(
                seed1.is_some() != seed2.is_some(),
                "survivors {seed1:?}/{seed2:?} admit no serial order"
            );
        }
    }
}
