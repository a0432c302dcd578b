//! The first-class FE cache model: LRU, LFU and TTL eviction behind one
//! trait, with per-object sizes, byte-capacity accounting and full
//! hit/miss/eviction statistics.
//!
//! [`ObjectCache`] replaces the old unbounded `HashMap` behind a bool in
//! `fe.rs`. It is **observe-only deterministic**: no RNG, no scheduling,
//! and every eviction decision is a total order over
//! `(policy rank, insertion tick, key)` — so identical operation
//! sequences produce identical cache states on any thread count, and an
//! unbounded configuration (the default) behaves exactly like the plain
//! map it replaced.
//!
//! Semantics pinned by `tests/cache_model.rs`:
//! * `hits + misses == lookups` under any interleaving;
//! * `bytes_resident <= capacity_bytes` and `len <= max_entries` at all
//!   times;
//! * TTL entries expire **at** the exact virtual-time boundary
//!   (`now >= inserted_at + ttl` is a miss, counted as an expiration);
//! * an object larger than the byte capacity is rejected, never
//!   admitted-then-evicted; a zero-capacity cache holds nothing.

use simcore::hash::HashMap;
use simcore::time::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// Eviction policy of an [`ObjectCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachePolicy {
    /// Evict the least-recently-used entry (recency updated on hit).
    Lru,
    /// Evict the least-frequently-used entry (ties broken LRU-style by
    /// last-touch order).
    Lfu,
    /// Entries expire `ttl` after insertion (refreshing an entry resets
    /// its clock); capacity pressure evicts the soonest-to-expire entry
    /// first.
    Ttl(SimDuration),
}

/// Provisioning of one cache: policy plus optional byte and entry caps.
/// The default ([`CacheConfig::unbounded`]) is **inert**: LRU bookkeeping
/// over infinite capacity never evicts and never expires, reproducing
/// the unbounded-map behaviour byte for byte.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheConfig {
    /// Eviction policy.
    pub policy: CachePolicy,
    /// Byte capacity; `None` = unlimited.
    pub capacity_bytes: Option<u64>,
    /// Entry-count cap; `None` = unlimited.
    pub max_entries: Option<usize>,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig::unbounded()
    }
}

impl CacheConfig {
    /// The inert configuration: LRU over unlimited capacity.
    pub fn unbounded() -> CacheConfig {
        CacheConfig {
            policy: CachePolicy::Lru,
            capacity_bytes: None,
            max_entries: None,
        }
    }

    /// LRU with a byte capacity.
    pub fn lru(capacity_bytes: u64) -> CacheConfig {
        CacheConfig {
            policy: CachePolicy::Lru,
            capacity_bytes: Some(capacity_bytes),
            max_entries: None,
        }
    }

    /// LFU with a byte capacity.
    pub fn lfu(capacity_bytes: u64) -> CacheConfig {
        CacheConfig {
            policy: CachePolicy::Lfu,
            capacity_bytes: Some(capacity_bytes),
            max_entries: None,
        }
    }

    /// TTL expiry with a byte capacity.
    pub fn ttl(ttl: SimDuration, capacity_bytes: u64) -> CacheConfig {
        CacheConfig {
            policy: CachePolicy::Ttl(ttl),
            capacity_bytes: Some(capacity_bytes),
            max_entries: None,
        }
    }

    /// Adds an entry-count cap.
    pub fn with_max_entries(mut self, n: usize) -> CacheConfig {
        self.max_entries = Some(n);
        self
    }

    /// True when the configuration can never evict or expire anything:
    /// unlimited bytes and entries under a non-expiring policy. Such a
    /// cache is behaviourally identical to a plain map.
    pub fn is_unbounded(&self) -> bool {
        self.capacity_bytes.is_none()
            && self.max_entries.is_none()
            && !matches!(self.policy, CachePolicy::Ttl(_))
    }
}

/// Running statistics of one cache. All counters are cumulative;
/// `hits + misses == lookups` is invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups that returned a resident, unexpired entry.
    pub hits: u64,
    /// Lookups that found nothing usable (absent or expired).
    pub misses: u64,
    /// Successful inserts (refreshes included).
    pub insertions: u64,
    /// Entries removed by capacity pressure.
    pub evictions: u64,
    /// Entries removed because their TTL elapsed.
    pub expirations: u64,
    /// Inserts rejected because the object can never fit.
    pub rejections: u64,
}

/// What one [`Cache::insert`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// The object is now resident.
    pub inserted: bool,
    /// Entries evicted by capacity pressure to make room.
    pub evicted: u64,
    /// Entries that expired (TTL) while making room.
    pub expired: u64,
}

/// The uniform interface every eviction policy sits behind. One
/// implementation — [`ObjectCache`] — serves all policies; the trait is
/// the seam harnesses and tests program against.
pub trait Cache<V> {
    /// Looks up `key` at virtual time `now`, counting a hit or miss and
    /// updating recency/frequency. An entry whose TTL has elapsed
    /// (`now >= inserted_at + ttl`) is removed and counted as an
    /// expiration plus a miss.
    fn get(&mut self, key: u64, now: SimTime) -> Option<&V>;

    /// Inserts `key` with a `size`-byte object at `now`, evicting in
    /// policy order until it fits. Re-inserting a resident key refreshes
    /// it in place (not an eviction). Objects that can never fit are
    /// rejected.
    fn insert(&mut self, key: u64, value: V, size: u64, now: SimTime) -> InsertOutcome;

    /// Cumulative statistics.
    fn stats(&self) -> CacheStats;

    /// Bytes currently resident.
    fn bytes_resident(&self) -> u64;

    /// Entries currently resident.
    fn len(&self) -> usize;

    /// True when nothing is resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Clone, Debug)]
struct Entry<V> {
    value: V,
    size: u64,
    /// Monotone operation tick of the last insert/touch (recency).
    tick: u64,
    /// Hit count + 1 (frequency, for LFU).
    freq: u64,
    /// Absolute expiry instant (TTL policy only).
    expires_at: Option<SimTime>,
}

/// The cache model: a keyed object store with deterministic,
/// policy-ordered eviction. See the module docs for the invariants.
#[derive(Clone, Debug)]
pub struct ObjectCache<V> {
    cfg: CacheConfig,
    map: HashMap<u64, Entry<V>>,
    /// Eviction index: `(policy rank, tick, key)`, smallest evicts
    /// first. Rank is recency (LRU), frequency (LFU) or expiry instant
    /// (TTL); the `(tick, key)` tail makes the order total and
    /// deterministic.
    order: BTreeSet<(u64, u64, u64)>,
    bytes: u64,
    tick: u64,
    stats: CacheStats,
}

impl<V> ObjectCache<V> {
    /// An empty cache under `cfg`.
    pub fn new(cfg: CacheConfig) -> ObjectCache<V> {
        ObjectCache {
            cfg,
            map: HashMap::default(),
            order: BTreeSet::new(),
            bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// True when `key` is resident and unexpired at `now`, without
    /// touching statistics or recency.
    pub fn contains(&self, key: u64, now: SimTime) -> bool {
        self.map
            .get(&key)
            .is_some_and(|e| e.expires_at.is_none_or(|x| now < x))
    }

    fn rank(&self, e: &Entry<V>) -> u64 {
        match self.cfg.policy {
            CachePolicy::Lru => e.tick,
            CachePolicy::Lfu => e.freq,
            CachePolicy::Ttl(_) => e.expires_at.expect("TTL entries carry expiry").as_nanos(),
        }
    }

    fn order_key(&self, key: u64, e: &Entry<V>) -> (u64, u64, u64) {
        (self.rank(e), e.tick, key)
    }

    /// Removes `key` unconditionally; returns its entry.
    fn remove_entry(&mut self, key: u64) -> Option<Entry<V>> {
        let e = self.map.remove(&key)?;
        let ok = self.order.remove(&self.order_key(key, &e));
        debug_assert!(ok, "order index out of sync for key {key}");
        self.bytes -= e.size;
        Some(e)
    }

    fn over_capacity_with(&self, extra_bytes: u64) -> bool {
        if let Some(cap) = self.cfg.capacity_bytes {
            if self.bytes + extra_bytes > cap {
                return true;
            }
        }
        if let Some(max) = self.cfg.max_entries {
            if self.map.len() + 1 > max {
                return true;
            }
        }
        false
    }
}

impl<V> Cache<V> for ObjectCache<V> {
    fn get(&mut self, key: u64, now: SimTime) -> Option<&V> {
        self.stats.lookups += 1;
        match self.map.get(&key) {
            None => {
                self.stats.misses += 1;
                None
            }
            Some(e) if e.expires_at.is_some_and(|x| now >= x) => {
                self.remove_entry(key);
                self.stats.expirations += 1;
                self.stats.misses += 1;
                None
            }
            Some(_) => {
                self.stats.hits += 1;
                // Touch: bump recency and frequency, reorder the index.
                let old = self.order_key(key, &self.map[&key]);
                self.order.remove(&old);
                self.tick += 1;
                let tick = self.tick;
                let e = self.map.get_mut(&key).expect("checked resident");
                e.tick = tick;
                e.freq += 1;
                let new = self.order_key(key, &self.map[&key]);
                self.order.insert(new);
                self.map.get(&key).map(|e| &e.value)
            }
        }
    }

    fn insert(&mut self, key: u64, value: V, size: u64, now: SimTime) -> InsertOutcome {
        // Refresh: drop the old entry silently (neither an eviction nor
        // an expiration — the object is being replaced by its owner).
        self.remove_entry(key);
        // Reject what can never fit: an oversized object, or anything at
        // all when the entry cap is zero.
        if self.cfg.capacity_bytes.is_some_and(|cap| size > cap) || self.cfg.max_entries == Some(0)
        {
            self.stats.rejections += 1;
            return InsertOutcome::default();
        }
        let mut out = InsertOutcome {
            inserted: true,
            ..InsertOutcome::default()
        };
        while self.over_capacity_with(size) {
            let &(_, _, victim) = self.order.iter().next().expect("over capacity but empty");
            let e = self.remove_entry(victim).expect("victim resident");
            if e.expires_at.is_some_and(|x| now >= x) {
                self.stats.expirations += 1;
                out.expired += 1;
            } else {
                self.stats.evictions += 1;
                out.evicted += 1;
            }
        }
        self.tick += 1;
        let expires_at = match self.cfg.policy {
            CachePolicy::Ttl(ttl) => Some(now + ttl),
            _ => None,
        };
        let e = Entry {
            value,
            size,
            tick: self.tick,
            freq: 1,
            expires_at,
        };
        self.order.insert(self.order_key(key, &e));
        self.map.insert(key, e);
        self.bytes += size;
        self.stats.insertions += 1;
        out
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn bytes_resident(&self) -> u64 {
        self.bytes
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn lru_evicts_in_recency_order() {
        let mut c: ObjectCache<u32> = ObjectCache::new(CacheConfig::lru(30));
        c.insert(1, 10, 10, t(0));
        c.insert(2, 20, 10, t(1));
        c.insert(3, 30, 10, t(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(1, t(3)), Some(&10));
        c.insert(4, 40, 10, t(4));
        assert!(c.contains(1, t(5)) && c.contains(3, t(5)) && c.contains(4, t(5)));
        assert!(!c.contains(2, t(5)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lfu_evicts_cold_entries_with_lru_tiebreak() {
        let mut c: ObjectCache<u32> = ObjectCache::new(CacheConfig::lfu(30));
        c.insert(1, 0, 10, t(0));
        c.insert(2, 0, 10, t(1));
        c.insert(3, 0, 10, t(2));
        c.get(1, t(3));
        c.get(1, t(4));
        c.get(3, t(5));
        // Frequencies: 1→3, 2→1, 3→2. Key 2 is the LFU victim.
        c.insert(4, 0, 10, t(6));
        assert!(!c.contains(2, t(7)));
        // Now 4 (freq 1) ties with nothing; 3 (freq 2) vs 4 (freq 1):
        // the next insert evicts 4, the least frequent.
        c.insert(5, 0, 10, t(8));
        assert!(!c.contains(4, t(9)));
        assert!(c.contains(1, t(9)) && c.contains(3, t(9)) && c.contains(5, t(9)));
    }

    #[test]
    fn ttl_expires_at_exact_boundary() {
        let ttl = SimDuration::from_millis(100);
        let mut c: ObjectCache<u32> = ObjectCache::new(CacheConfig::ttl(ttl, 1_000));
        c.insert(7, 70, 10, t(50));
        assert_eq!(c.get(7, t(149)), Some(&70));
        // now == inserted_at + ttl: expired, by definition.
        assert_eq!(c.get(7, t(150)), None);
        let s = c.stats();
        assert_eq!(s.expirations, 1);
        assert_eq!((s.hits, s.misses, s.lookups), (1, 1, 2));
        assert_eq!(c.bytes_resident(), 0);
        // Refresh resets the clock.
        c.insert(7, 71, 10, t(200));
        assert_eq!(c.get(7, t(299)), Some(&71));
    }

    #[test]
    fn byte_and_entry_caps_bind_independently() {
        let mut c: ObjectCache<u32> = ObjectCache::new(CacheConfig::lru(100).with_max_entries(2));
        c.insert(1, 0, 10, t(0));
        c.insert(2, 0, 10, t(1));
        // Bytes ample (20/100) but the entry cap binds.
        c.insert(3, 0, 10, t(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        // Entry cap ample but bytes bind.
        c.insert(4, 0, 95, t(3));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes_resident(), 95);
    }

    #[test]
    fn zero_capacity_and_oversized_objects_are_rejected() {
        let mut c: ObjectCache<u32> = ObjectCache::new(CacheConfig::lru(50));
        assert_eq!(
            c.insert(1, 0, 51, t(0)),
            InsertOutcome {
                inserted: false,
                evicted: 0,
                expired: 0
            }
        );
        assert_eq!(c.stats().rejections, 1);
        assert_eq!(c.len(), 0);
        let mut z: ObjectCache<u32> = ObjectCache::new(CacheConfig::lru(0));
        assert!(!z.insert(1, 0, 1, t(0)).inserted);
        let mut e: ObjectCache<u32> =
            ObjectCache::new(CacheConfig::unbounded().with_max_entries(0));
        assert!(!e.insert(1, 0, 1, t(0)).inserted);
        // A zero-byte object fits a zero-byte cache (vacuously).
        assert!(z.insert(2, 0, 0, t(0)).inserted);
    }

    #[test]
    fn refresh_replaces_in_place_without_eviction() {
        let mut c: ObjectCache<u32> = ObjectCache::new(CacheConfig::lru(30));
        c.insert(1, 10, 10, t(0));
        c.insert(1, 11, 20, t(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes_resident(), 20);
        assert_eq!(c.get(1, t(2)), Some(&11));
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().insertions, 2);
    }

    #[test]
    fn unbounded_default_never_evicts() {
        let cfg = CacheConfig::default();
        assert!(cfg.is_unbounded());
        assert!(!CacheConfig::lru(10).is_unbounded());
        assert!(!CacheConfig::ttl(SimDuration::from_secs(1), u64::MAX).is_unbounded());
        let mut c: ObjectCache<u64> = ObjectCache::new(cfg);
        for k in 0..10_000u64 {
            assert!(c.insert(k, k, 1_000, t(k)).inserted);
        }
        assert_eq!(c.len(), 10_000);
        let s = c.stats();
        assert_eq!((s.evictions, s.expirations, s.rejections), (0, 0, 0));
    }
}
