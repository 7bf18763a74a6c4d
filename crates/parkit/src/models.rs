//! conckit models of [`ShardedMap`]'s concurrency properties.
//!
//! Each function here builds one small, deterministic concurrent
//! scenario over the real map code (compiled against the conckit shim) and returns the exploration [`Report`]. They are run
//! twice: as `#[test]`s in the `model`-feature test suite, and by the
//! `conc_check` bench binary which records schedule counts in CI.
//!
//! Scenarios are deliberately tiny — two threads, a handful of
//! operations — because exhaustive exploration cost is exponential in
//! scheduling points. Within the preemption bound the coverage is still
//! total: every admissible interleaving of every sync operation in the
//! scenario, including the ones a torture test hits once a decade.

use crate::shard::ShardedMap;
use conckit::sync::Arc;
use conckit::{explore, Config, Report};

/// Concurrent `get`/`insert` on a bounded [`ShardedMap`] never observes
/// a torn value and never exceeds the capacity bound, under every
/// interleaving — the property the verdict memo-cache stakes artifact
/// byte-identity on.
pub fn sharded_map_consistency(config: &Config) -> Report {
    explore(config, || {
        // One shard of capacity 1 maximizes collision and eviction
        // pressure; values are (v, 2v) pairs so tearing is detectable.
        let map: Arc<ShardedMap<u8, (u32, u32)>> = Arc::new(ShardedMap::new(1, Some(1)));
        let writer = {
            let map = map.clone();
            conckit::thread::spawn(move || {
                map.insert(1, (10, 20));
            })
        };
        map.insert(2, (7, 14));
        if let Some((a, b)) = map.get(&1) {
            assert_eq!((a, b), (10, 20), "torn read");
        }
        if let Some((a, b)) = map.get(&2) {
            assert_eq!((a, b), (7, 14), "torn read");
        }
        let _ = writer.join();
        assert!(map.len() <= 1, "capacity bound violated: {}", map.len());
        // The surviving entry is whichever insert the schedule ordered
        // last; it must be intact either way.
        let survivor = map.get(&1).or_else(|| map.get(&2));
        match survivor {
            Some(v) => assert!(v == (10, 20) || v == (7, 14), "torn survivor {v:?}"),
            None => panic!("both entries vanished from a capacity-1 map"),
        }
    })
}

/// The LRU touch path under contention: a concurrent `get` (which
/// relinks the entry to the recency-list front) racing a fresh insert
/// that must evict the current LRU tail. Under every interleaving the
/// list and map stay consistent: the capacity bound holds, values are
/// untorn, the new key always lands, and the survivor set is one of the
/// two orders the race admits.
pub fn sharded_map_lru_touch(config: &Config) -> Report {
    explore(config, || {
        // One shard of capacity 2, pre-seeded serially: recency order is
        // [2 (MRU), 1 (LRU)].
        let map: Arc<ShardedMap<u8, (u32, u32)>> = Arc::new(ShardedMap::new(1, Some(2)));
        map.insert(1, (10, 20));
        map.insert(2, (7, 14));
        let toucher = {
            let map = map.clone();
            conckit::thread::spawn(move || {
                // Touch 1. Before the insert: 1 becomes MRU and the
                // insert evicts 2. After the eviction of 1: a miss.
                if let Some(v) = map.get(&1) {
                    assert_eq!(v, (10, 20), "torn read");
                }
            })
        };
        map.insert(3, (5, 15));
        let _ = toucher.join();
        assert!(map.len() <= 2, "capacity bound violated: {}", map.len());
        let v3 = map.get(&3);
        assert_eq!(v3, Some((5, 15)), "the fresh insert must survive");
        let survived_1 = map.get(&1).inspect(|v| assert_eq!(*v, (10, 20)));
        let survived_2 = map.get(&2).inspect(|v| assert_eq!(*v, (7, 14)));
        // Exactly one of the seeds survives: 1 if the touch won the
        // race (2 was the LRU victim), 2 if the insert did.
        assert!(
            survived_1.is_some() != survived_2.is_some(),
            "survivors {survived_1:?}/{survived_2:?} admit no serial order"
        );
    })
}

/// One model: a closed concurrent scenario explored under a [`Config`].
pub type Model = fn(&Config) -> Report;

/// All models with their names, in a stable order — shared by the test
/// suite and the `conc_check` CI gate.
pub fn all() -> Vec<(&'static str, Model)> {
    vec![
        ("sharded_map_consistency", sharded_map_consistency),
        ("sharded_map_lru_touch", sharded_map_lru_touch),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> Config {
        Config::with_bound(2)
    }

    #[test]
    fn model_sharded_map_consistency() {
        let report = sharded_map_consistency(&config());
        report.assert_ok();
        assert!(report.schedules >= 2, "expected real branching");
    }

    #[test]
    fn model_sharded_map_lru_touch() {
        let report = sharded_map_lru_touch(&config());
        report.assert_ok();
        assert!(report.schedules >= 2, "expected real branching");
    }
}
