//! Popularity dynamics — which FE result-cache policy wins depends on
//! how fast popularity churns.
//!
//! The paper's Sec. 3 caching analysis treats the keyword popularity
//! law as static. This experiment asks the question the dynamic
//! workload model enables: under a *fixed* cache budget, how does the
//! best eviction policy change as the popularity law drifts?
//!
//! Three phases:
//!
//! 1. **Trace sweep** — one keyword trace per churn level, drawn from a
//!    [`PopularityProcess`] (shot-noise churn over Zipf(0.9)), replayed
//!    through an [`ObjectCache`] per policy (LRU / LFU / TTL) at the
//!    same byte budget. The paper-shaped result asserted: LFU wins
//!    under the static law (frequency is a perfect prior), loses to
//!    both LRU and TTL once churn outruns its stale frequency counts,
//!    and the crossover churn rate is reported.
//! 2. **End-to-end arms** — the same contest inside the full simulator:
//!    two session campaigns, identical but for the FE result-cache
//!    policy, all sessions pinned to one FE. Asserts the cache
//!    telemetry (hits, evictions) is live and that the TSV is
//!    byte-identical across `FECDN_THREADS` 1 vs 4 and across reruns.
//! 3. **Memory contract** — a 10× larger session campaign (10^5 →
//!    10^6 at paper scale, 10^4 → 10^5 in the CI smoke) through the
//!    session-slab feeder and a bounded reducer: peak sink-retained
//!    bytes, peak pending events and peak connection slots must grow
//!    ≤ 1.5× while the workload grows 10× — the O(live sessions)
//!    footprint claim.
//!
//! The TSV is the phase-1 hit-ratio table that
//! `tests/golden/harness/exp_popularity.tsv` pins.

use super::{ClaimRun, Tsv};
use crate::{scenario, Scale};
use cdnsim::{CacheConfig, ObjectCache, ServiceConfig};
use emulator::{
    Campaign, CollectSink, Design, ProcessedQuery, QuerySink, RunDescriptor, SessionWorkload,
    StreamReport,
};
use simcore::dist::{PopularityModel, PopularityProcess};
use simcore::rng::Rng;
use simcore::time::{SimDuration, SimTime};
use stats::SummaryAcc;

const CATALOG: usize = 4_000;
const ZIPF_EXPONENT: f64 = 0.9;
/// Shot-noise renewal rates swept in phase 1 (shots per virtual second).
const CHURN_LEVELS: [f64; 5] = [0.0, 0.2, 1.0, 5.0, 25.0];
/// Trace lookup spacing: 50 ms of virtual time between lookups, so a
/// churn level's shots interleave realistically with the lookups.
const LOOKUP_GAP_MS: u64 = 50;
/// TTL arm's freshness horizon.
const TTL_SECS: u64 = 120;
/// Byte budget shared by every policy arm (~150 objects).
const CAPACITY_BYTES: u64 = 150 * 26_000;

/// Deterministic per-keyword object size (24–28 kB, keyed so both the
/// trace replay and reruns agree without a side table).
fn object_bytes(key: u64) -> u64 {
    24_000 + (key % 5) * 1_000
}

/// One keyword trace: `lookups` draws from a churned Zipf process,
/// 50 ms apart. Pure function of `(seed, churn)` via named streams.
fn trace(seed: u64, churn: f64, lookups: usize) -> Vec<(SimTime, u64)> {
    let model = PopularityModel::static_zipf(ZIPF_EXPONENT).with_churn(churn);
    let mut proc = PopularityProcess::new(
        CATALOG,
        model,
        Rng::from_seed_and_name(seed, "exp_popularity/churn"),
    );
    let mut draws = Rng::from_seed_and_name(seed, "exp_popularity/draws");
    let mut t = SimTime::ZERO;
    (0..lookups)
        .map(|_| {
            t += SimDuration::from_millis(LOOKUP_GAP_MS);
            (t, proc.sample(t, &mut draws))
        })
        .collect()
}

/// Replays `trace` through one policy at the shared budget, returning
/// the hit ratio.
fn replay(trace: &[(SimTime, u64)], cfg: CacheConfig) -> f64 {
    let mut cache: ObjectCache<()> = ObjectCache::new(cfg);
    for &(t, key) in trace {
        if cache.get(key, t).is_none() {
            cache.insert(key, (), object_bytes(key), t);
        }
    }
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, s.lookups, "cache accounting broke");
    s.hits as f64 / s.lookups.max(1) as f64
}

fn policy_configs() -> [(&'static str, CacheConfig); 3] {
    [
        ("lru", CacheConfig::lru(CAPACITY_BYTES)),
        ("lfu", CacheConfig::lfu(CAPACITY_BYTES)),
        (
            "ttl",
            CacheConfig::ttl(SimDuration::from_secs(TTL_SECS), CAPACITY_BYTES),
        ),
    ]
}

/// The end-to-end contest workload: every session pinned to FE 0 so a
/// single result cache sees the whole keyword stream.
fn contest_workload(sessions: u64) -> SessionWorkload {
    SessionWorkload::new(sessions)
        .with_mean_gap(SimDuration::from_millis(5))
        .with_popularity(PopularityModel::static_zipf(ZIPF_EXPONENT).with_churn(2.0))
        .with_fixed_fe(0)
}

fn contest_campaign(seed: u64, sessions: u64) -> Campaign {
    let mut c = Campaign::new(scenario(Scale::Quick, seed));
    for (name, cache) in [
        ("e2e/lru", CacheConfig::lru(CAPACITY_BYTES)),
        ("e2e/lfu", CacheConfig::lfu(CAPACITY_BYTES)),
    ] {
        c.push(
            name,
            ServiceConfig::google_like(seed).with_result_cache(cache),
            Design::Sessions(contest_workload(sessions)),
        )
        .metrics = Some(true);
    }
    c
}

/// Bounded reducer for the memory phase: two capped accumulators,
/// ~8 kB regardless of query count, honestly reported so the
/// peak-retained measurement reflects real bytes.
struct BoundedReduce {
    overall: SummaryAcc,
    t_dynamic: SummaryAcc,
}

impl QuerySink for BoundedReduce {
    type Output = ();

    fn on_query(&mut self, q: &ProcessedQuery) {
        self.overall.push(q.params.overall_ms);
        self.t_dynamic.push(q.params.t_dynamic_ms);
    }

    fn retained_bytes(&self) -> usize {
        self.overall.retained_bytes() + self.t_dynamic.retained_bytes()
    }

    fn finish(self) {}
}

fn bounded_sink(_: &RunDescriptor) -> BoundedReduce {
    BoundedReduce {
        overall: SummaryAcc::with_cap(256),
        t_dynamic: SummaryAcc::with_cap(256),
    }
}

/// Runs `sessions` single-query sessions through the slab feeder and a
/// bounded sink, returning (peak retained bytes, peak pending events,
/// peak connection slots).
fn memory_run(seed: u64, sessions: u64) -> (usize, usize, f64) {
    let mut c = Campaign::new(scenario(Scale::Quick, seed));
    c.push(
        "mem/slab",
        ServiceConfig::google_like(seed),
        Design::Sessions(
            SessionWorkload::new(sessions).with_mean_gap(SimDuration::from_millis(20)),
        ),
    )
    .metrics = Some(true);
    let report: StreamReport<()> = c.execute_stream(&bounded_sink);
    let run = report.get("mem/slab").unwrap();
    let slots = run.metrics.gauge("tcpsim.conn_slots_hiwater").unwrap().1;
    (
        run.stats.peak_retained_bytes,
        run.stats.peak_pending_events,
        slots,
    )
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let (lookups, contest_sessions, mem_base) = match scale {
        Scale::Quick => (40_000usize, 1_500u64, 10_000u64),
        Scale::Paper => (200_000, 10_000, 100_000),
    };

    // ---- Phase 1: trace-driven policy x churn sweep -------------------
    let mut hit: Vec<[f64; 3]> = Vec::new();
    for &churn in &CHURN_LEVELS {
        let tr = trace(seed, churn, lookups);
        let mut row = [0.0f64; 3];
        for (i, (_, cfg)) in policy_configs().into_iter().enumerate() {
            row[i] = replay(&tr, cfg);
        }
        hit.push(row);
    }

    let mut tsv = Tsv::new(&["churn_per_sec", "hit_lru", "hit_lfu", "hit_ttl", "winner"]);
    for (i, &churn) in CHURN_LEVELS.iter().enumerate() {
        let [lru, lfu, ttl] = hit[i];
        let winner = if lfu >= lru && lfu >= ttl {
            "lfu"
        } else if lru >= ttl {
            "lru"
        } else {
            "ttl"
        };
        tsv.row(&[
            format!("{churn}"),
            format!("{lru:.4}"),
            format!("{lfu:.4}"),
            format!("{ttl:.4}"),
            winner.to_string(),
        ]);
    }

    // First churn level where LRU catches LFU: the crossover the
    // paper-shaped claim predicts exists.
    let crossover = CHURN_LEVELS
        .iter()
        .zip(&hit)
        .find(|(_, h)| h[0] >= h[1])
        .map(|(c, _)| *c);

    let mut run = ClaimRun::default();
    let [s_lru, s_lfu, _] = hit[0];
    let [f_lru, f_lfu, f_ttl] = *hit.last().unwrap();
    run.check(
        "static Zipf: LFU beats LRU",
        format!("{s_lfu:.3} vs {s_lru:.3}"),
        s_lfu > s_lru,
    );
    run.check(
        "fast churn: LRU beats LFU",
        format!("{f_lru:.3} vs {f_lfu:.3}"),
        f_lru > f_lfu,
    );
    run.check(
        "fast churn: TTL beats LFU",
        format!("{f_ttl:.3} vs {f_lfu:.3}"),
        f_ttl > f_lfu,
    );
    run.check(
        "a crossover churn rate exists",
        format!("{crossover:?} shots/s"),
        crossover.is_some(),
    );
    {
        let tr = trace(seed, CHURN_LEVELS[2], lookups);
        let again = replay(&tr, CacheConfig::lru(CAPACITY_BYTES));
        run.check(
            "trace sweep reruns reproduce the hit ratio exactly",
            "",
            again == hit[2][0],
        );
    }

    // ---- Phase 2: end-to-end policy arms ------------------------------
    let serial = contest_campaign(seed, contest_sessions)
        .execute_stream_with_threads(&|_| CollectSink::new(), 1);
    let parallel = contest_campaign(seed, contest_sessions)
        .execute_stream_with_threads(&|_| CollectSink::new(), 4);
    run.check(
        "end-to-end arms byte-identical at FECDN_THREADS 1 vs 4",
        "",
        serial.to_tsv() == parallel.to_tsv(),
    );
    let rerun = contest_campaign(seed, contest_sessions)
        .execute_stream_with_threads(&|_| CollectSink::new(), 1);
    run.check(
        "end-to-end rerun reproduces the TSV exactly",
        "",
        serial.to_tsv() == rerun.to_tsv(),
    );
    let counter = |label: &str, name: &str| -> u64 {
        serial
            .get(label)
            .unwrap()
            .metrics
            .counter(name)
            .unwrap_or(0)
    };
    let lru_hits = counter("e2e/lru", "cdnsim.fe_result_cache_hits");
    let lru_evictions = counter("e2e/lru", "cdnsim.fe_result_cache_evictions");
    let lfu_hits = counter("e2e/lfu", "cdnsim.fe_result_cache_hits");
    run.check(
        "bounded result cache is live end-to-end",
        format!("lru hits {lru_hits}, evictions {lru_evictions}, lfu hits {lfu_hits}"),
        lru_hits > 0 && lru_evictions > 0 && lfu_hits > 0,
    );
    for label in ["e2e/lru", "e2e/lfu"] {
        let t = serial.get(label).unwrap().tally;
        run.check(
            format!("accounting conserves in {label}"),
            format!("{} of {contest_sessions}", t.total()),
            t.total() == contest_sessions as usize,
        );
    }

    // ---- Phase 3: memory contract at 10x sessions ---------------------
    let (retained_base, pending_base, slots_base) = memory_run(seed, mem_base);
    let (retained_10x, pending_10x, slots_10x) = memory_run(seed, mem_base * 10);
    let retained_growth = retained_10x as f64 / retained_base.max(1) as f64;
    let pending_growth = pending_10x as f64 / pending_base.max(1) as f64;
    let slots_growth = slots_10x / slots_base.max(1.0);
    eprintln!(
        "memory contract: {mem_base} sessions -> {} B retained / {} pending / {} conn slots; \
         {} sessions -> {} B / {} pending / {} slots",
        retained_base,
        pending_base,
        slots_base,
        mem_base * 10,
        retained_10x,
        pending_10x,
        slots_10x
    );
    run.check(
        "peak retained bytes flat under 10x sessions",
        format!("growth {retained_growth:.3}"),
        retained_growth <= 1.5,
    );
    run.check(
        "peak pending events O(live sessions), not O(total)",
        format!("growth {pending_growth:.3}"),
        pending_growth <= 1.5,
    );
    run.check(
        "peak connection slots O(live sessions), not O(total)",
        format!("growth {slots_growth:.3}"),
        slots_growth <= 1.5,
    );

    run.with_tsv(tsv)
}
