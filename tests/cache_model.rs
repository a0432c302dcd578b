//! Cache-model conformance: eviction order per policy, TTL boundary
//! semantics, capacity accounting, degenerate edges, and the accounting
//! invariants under arbitrary op interleavings.
//!
//! The armed-but-inert half lives here too: a campaign with the cache
//! model *installed* on every run — unbounded static cache, a
//! provisioned-but-disabled result cache — must reproduce the committed
//! pre-cache-model golden byte for byte at any `FECDN_THREADS`.

mod common;

use cdnsim::{CacheConfig, CachePolicy, ObjectCache, ServiceConfig};
use common::representative_campaign;
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::dataset_b::DatasetB;
use emulator::{Campaign, CollectSink, Design, Scenario};
use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};

fn at(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

#[test]
fn lru_evicts_strictly_in_recency_order() {
    // Entries 1..=4 at 10 B each under a 40 B cap; touch 1 and 3, then
    // insert three more. Evictions must follow recency: 2, 4, 1.
    let mut c: ObjectCache<&str> = ObjectCache::new(CacheConfig::lru(40));
    for k in 1..=4 {
        c.insert(k, "v", 10, at(k));
    }
    assert!(c.get(1, at(10)).is_some());
    assert!(c.get(3, at(11)).is_some());
    c.insert(5, "v", 10, at(20));
    assert!(!c.contains(2, at(20)), "2 was the coldest");
    c.insert(6, "v", 10, at(21));
    assert!(!c.contains(4, at(21)), "then 4");
    c.insert(7, "v", 10, at(22));
    assert!(!c.contains(1, at(22)), "then 1, despite its touch");
    for k in [3, 5, 6, 7] {
        assert!(c.contains(k, at(23)), "{k} should have survived");
    }
    assert_eq!(c.stats().evictions, 3);
}

#[test]
fn lfu_prefers_frequency_and_breaks_ties_by_recency() {
    let mut c: ObjectCache<&str> = ObjectCache::new(CacheConfig::lfu(30));
    c.insert(1, "v", 10, at(0));
    c.insert(2, "v", 10, at(1));
    c.insert(3, "v", 10, at(2));
    // 1 is hot (3 hits), 2 lukewarm (1 hit), 3 cold (0 hits).
    for t in 3..6 {
        c.get(1, at(t));
    }
    c.get(2, at(6));
    c.insert(4, "v", 10, at(7));
    assert!(!c.contains(3, at(7)), "cold entry evicts first under LFU");
    c.insert(5, "v", 10, at(8));
    // 2 (freq 2) loses to 4 and 5 (freq 1)? No: lower freq evicts
    // first, and 4 is older than 5 at equal frequency.
    assert!(!c.contains(4, at(8)), "freq tie broken by insertion order");
    assert!(c.contains(1, at(9)) && c.contains(2, at(9)));
}

#[test]
fn ttl_expires_exactly_at_the_boundary_instant() {
    let ttl = SimDuration::from_secs(10);
    let mut c: ObjectCache<&str> = ObjectCache::new(CacheConfig::ttl(ttl, 1_000));
    c.insert(1, "v", 10, at(1_000));
    let last_valid = at(1_000) + SimDuration::from_nanos(10 * 1_000_000_000 - 1);
    assert!(
        c.get(1, last_valid).is_some(),
        "one tick before the boundary"
    );
    // `now >= inserted_at + ttl` is a miss plus an expiration — the
    // boundary instant itself is already stale.
    assert!(c.get(1, at(11_000)).is_none(), "boundary instant is a miss");
    let s = c.stats();
    assert_eq!((s.hits, s.misses, s.expirations), (1, 1, 1));
    assert_eq!(c.bytes_resident(), 0);
}

#[test]
fn byte_capacity_binds_on_insert() {
    // A 25 B budget holds two 10 B objects: the third evicts one.
    let mut c: ObjectCache<&str> = ObjectCache::new(CacheConfig::lru(25));
    c.insert(1, "v", 10, at(0));
    c.insert(2, "v", 10, at(1));
    c.insert(3, "v", 10, at(2));
    assert_eq!((c.len(), c.bytes_resident()), (2, 20));
    assert_eq!(c.stats().evictions, 1);
}

#[test]
fn zero_capacity_and_oversized_objects_are_rejected_not_thrashed() {
    let mut zero: ObjectCache<&str> = ObjectCache::new(CacheConfig::lru(0));
    let out = zero.insert(1, "v", 1, at(0));
    assert!(!out.inserted);
    assert_eq!(zero.stats().rejections, 1);
    assert!(zero.is_empty());

    let mut small: ObjectCache<&str> = ObjectCache::new(CacheConfig::lfu(100));
    small.insert(1, "v", 60, at(0));
    let out = small.insert(2, "v", 101, at(1));
    assert!(!out.inserted, "oversized object can never fit");
    assert_eq!(out.evicted, 0, "rejection must not evict residents");
    assert!(small.contains(1, at(2)));
}

#[test]
fn refresh_is_not_an_eviction() {
    let mut c: ObjectCache<u32> = ObjectCache::new(CacheConfig::lru(30));
    c.insert(1, 10, 10, at(0));
    c.insert(2, 20, 10, at(1));
    let out = c.insert(1, 11, 20, at(2));
    assert!(out.inserted);
    assert_eq!(out.evicted, 0, "replacing key 1 reuses its own bytes");
    assert_eq!(c.get(1, at(3)), Some(&11));
    assert_eq!(c.bytes_resident(), 30);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any interleaving of inserts and gets, against any policy
    /// and capacity: `hits + misses == lookups`, resident bytes never
    /// exceed the byte cap, and the running byte counter matches a
    /// from-scratch recount.
    #[test]
    fn accounting_invariants_hold_under_arbitrary_interleavings(
        policy in 0u8..3,
        cap in 0u64..400,
        ops in prop::collection::vec((0u8..2, 0u64..24, 1u64..80, 0u64..5_000), 1..120),
    ) {
        // cap == 0 is the degenerate zero-byte cache.
        let cfg = match policy {
            0 => CacheConfig::lru(cap),
            1 => CacheConfig::lfu(cap),
            _ => CacheConfig::ttl(SimDuration::from_millis(800), cap),
        };
        let mut c: ObjectCache<u64> = ObjectCache::new(cfg);
        let mut now = SimTime::ZERO;
        for (op, key, size, dt) in ops {
            now += SimDuration::from_millis(dt);
            match op {
                0 => { c.insert(key, key, size, now); }
                _ => { c.get(key, now); }
            }
            let s = c.stats();
            prop_assert_eq!(s.hits + s.misses, s.lookups);
            prop_assert!(c.bytes_resident() <= cap);
        }
        // The eviction index and the map must agree at quiescence: a
        // full key sweep via get() flushes lazily-expired entries, after
        // which the hit count and the resident count must coincide.
        let mut live = 0usize;
        for k in 0u64..24 {
            if c.get(k, now).is_some() {
                live += 1;
            }
        }
        prop_assert_eq!(live, c.len());
    }

    /// TTL caches drain completely once the clock passes every expiry,
    /// and expired entries never count as hits.
    #[test]
    fn ttl_cache_drains_after_the_horizon(
        keys in prop::collection::vec(0u64..16, 1..40),
    ) {
        let ttl = SimDuration::from_millis(500);
        let mut c: ObjectCache<u64> = ObjectCache::new(CacheConfig::ttl(ttl, 10_000));
        let mut now = SimTime::ZERO;
        for &k in &keys {
            now += SimDuration::from_millis(7);
            c.insert(k, k, 8, now);
        }
        let horizon = now + SimDuration::from_millis(500);
        for k in 0u64..16 {
            prop_assert!(c.get(k, horizon).is_none());
        }
        prop_assert!(c.is_empty());
        prop_assert_eq!(c.bytes_resident(), 0);
    }
}

/// The representative campaign with the cache model installed on every
/// run, tuned to be inert: a result-cache config is provisioned without
/// enabling result caching.
fn installed_but_inert(mut cfg: ServiceConfig) -> ServiceConfig {
    cfg.fe_result_cache = CacheConfig {
        policy: CachePolicy::Lfu,
        capacity_bytes: None,
    };
    assert!(!cfg.fe_caches_results, "provisioning must not enable");
    cfg
}

fn inert_cache_campaign(seed: u64) -> Campaign {
    let mut c = Campaign::new(Scenario::small(seed));
    c.push(
        "a/bing",
        installed_but_inert(ServiceConfig::bing_like(seed)),
        Design::DatasetA(DatasetA {
            repeats: 2,
            spacing: SimDuration::from_secs(8),
            keywords: KeywordPolicy::Fixed(0),
        }),
    );
    c.push(
        "a/google",
        installed_but_inert(ServiceConfig::google_like(seed)),
        Design::DatasetA(DatasetA {
            repeats: 2,
            spacing: SimDuration::from_secs(8),
            keywords: KeywordPolicy::RoundRobin(5),
        }),
    );
    c.push(
        "b/fixed-fe",
        installed_but_inert(ServiceConfig::google_like(seed)),
        Design::DatasetB(DatasetB::against(0).with_repeats(3)),
    );
    c.push(
        "custom/close-pair",
        installed_but_inert(ServiceConfig::bing_like(seed)),
        Design::custom(|sim| {
            sim.with(|w, net| {
                let fe = w.default_fe(0);
                let be = w.be_of_fe(fe);
                w.prewarm(net, fe, be, 2);
                for r in 0..4u64 {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(1_000 + r * 7_000),
                        cdnsim::QuerySpec {
                            client: 0,
                            keyword: r,
                            fixed_fe: Some(fe),
                            instant_followup: false,
                        },
                    );
                }
            });
        }),
    );
    c
}

#[test]
fn installed_but_inert_cache_model_reproduces_committed_golden() {
    let plain = representative_campaign(42)
        .execute_stream_with_threads(&|_| CollectSink::new(), 2)
        .to_tsv();
    let installed = inert_cache_campaign(42)
        .execute_stream_with_threads(&|_| CollectSink::new(), 2)
        .to_tsv();
    assert_eq!(plain, installed, "provisioning a cache changed behavior");
    common::compare_golden(
        &installed,
        "campaign_seed42.tsv",
        "cache model installed but inert",
    );
    // Thread invariance on the installed side.
    let serial = inert_cache_campaign(42)
        .execute_stream_with_threads(&|_| CollectSink::new(), 1)
        .to_tsv();
    let parallel = inert_cache_campaign(42)
        .execute_stream_with_threads(&|_| CollectSink::new(), 4)
        .to_tsv();
    assert_eq!(serial, parallel);
    assert_eq!(serial, installed);
}
