//! The benchmark workloads: what each one schedules, and why.
//!
//! Every workload is a batch job whose arrivals are open-loop in virtual
//! time. The topology — vantages, keyword corpus, FE fleets — is pinned
//! to [`TOPOLOGY_SEED`]; the workload seed drives everything else (the
//! campaign's per-run world seeds, every service-side stochastic model,
//! session arrivals and keyword draws). Seeds therefore vary the traffic
//! and the randomness, not the map, which keeps the simulated metrics
//! comparable across seeds.

use cdnsim::{
    BreakerPolicy, CacheConfig, LoadAwarePolicy, LoadModel, MappingPolicy, RetryBudget,
    RetryPolicy, ServiceConfig,
};
use emulator::dataset_b::DatasetB;
use emulator::{Campaign, Design, Scenario, SessionWorkload};
use nettopo::{BurstLossParams, FaultPlan};
use simcore::dist::PopularityModel;
use simcore::time::{SimDuration, SimTime};

/// Seed of the pinned topology (the repository's default seed).
pub const TOPOLOGY_SEED: u64 = 42;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5 Dataset B: every vantage queries one fixed FE.
    FixedFe,
    /// Multi-query sessions under churned Zipf popularity, bounded FE
    /// result caches, default-FE mapping.
    SessionsChurn,
    /// Naive versus protected policy arms under one shared fault plan.
    FaultsOverload,
}

/// Input size: `Full` is what the benchmark measures, `Tiny` is for the
/// package's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few hundred queries per run.
    Tiny,
}

/// A built campaign plus what the correctness gate needs to know about it.
pub struct Built {
    /// The campaign, ready for `execute_stream`.
    pub campaign: Campaign,
    /// Queries each run schedules, by label, in descriptor order.
    pub scheduled: Vec<(String, usize)>,
    /// Whether the gate checks google-like threshold < bing-like.
    pub check_thresholds: bool,
}

impl Built {
    /// Queries scheduled across all runs.
    pub fn total_scheduled(&self) -> usize {
        self.scheduled.iter().map(|(_, n)| n).sum()
    }
}

/// Dataset B repeats per vantage (the paper used 720; see README.md).
const FIXED_FE_REPEATS: u64 = 60;
/// Sessions in the churn workload, each `SESSION_QUERIES` queries long.
const CHURN_SESSIONS: u64 = 8_000;
const SESSION_QUERIES: u32 = 3;
/// FE result-cache budget: about 150 result pages of ~26 kB.
const RESULT_CACHE_BYTES: u64 = 150 * 26_000;
/// Sessions per policy arm in the fault workload.
const FAULT_SESSIONS: u64 = 2_500;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FixedFe,
        Workload::SessionsChurn,
        Workload::FaultsOverload,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FixedFe => "fixed_fe",
            Workload::SessionsChurn => "sessions_churn",
            Workload::FaultsOverload => "faults_overload",
        }
    }

    /// Why the workload exists (one line, for `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FixedFe => {
                "Fig. 5 Dataset B, all queries scheduled up front, one worker: \
                 packet engine, trace recording and timeline extraction dominate"
            }
            Workload::SessionsChurn => {
                "fed multi-query sessions under churned Zipf with bounded LRU result \
                 caches: feeder, caches and the O(live sessions) path do the work"
            }
            Workload::FaultsOverload => {
                "naive vs protected arms under one fault plan and a tight load knee on \
                 2 workers: failure paths, retries, hedges, shedding and the pool"
            }
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Campaign worker count (at most the 2 cores the benchmark assumes).
    pub fn threads(self) -> usize {
        match self {
            Workload::FaultsOverload => 2,
            _ => 1,
        }
    }

    /// Generates the scenario and constructs the campaign: the work the
    /// `setup_s` metric times.
    pub fn build(self, seed: u64, size: Size) -> Built {
        let mut scenario = match size {
            Size::Full => Scenario::paper_scale(TOPOLOGY_SEED),
            Size::Tiny => Scenario::with_size(TOPOLOGY_SEED, 24, 500),
        };
        // World seeds derive from the scenario seed; the topology above
        // stays pinned.
        scenario.seed = seed;
        let vantages = scenario.vantage_count();
        let mut campaign = Campaign::new(scenario);
        let mut scheduled = Vec::new();
        let mut push = |label: &str, cfg: ServiceConfig, design: Design, queries: usize| {
            // Telemetry on regardless of the caller's FECDN_METRICS: the
            // per-layer counts are read from the run registries.
            campaign.push(label, cfg, design).metrics = Some(true);
            scheduled.push((label.to_string(), queries));
        };
        match self {
            Workload::FixedFe => {
                let repeats = match size {
                    Size::Full => FIXED_FE_REPEATS,
                    Size::Tiny => 2,
                };
                let queries = vantages * repeats as usize;
                push(
                    "bing-like",
                    with_seed(ServiceConfig::bing_like(TOPOLOGY_SEED), seed),
                    fixed_fe_design(repeats),
                    queries,
                );
                push(
                    "google-like",
                    with_seed(ServiceConfig::google_like(TOPOLOGY_SEED), seed),
                    fixed_fe_design(repeats),
                    queries,
                );
            }
            Workload::SessionsChurn => {
                let sessions = match size {
                    Size::Full => CHURN_SESSIONS,
                    Size::Tiny => 60,
                };
                let w = SessionWorkload::new(sessions)
                    .with_queries_per_session(SESSION_QUERIES)
                    .with_think(SimDuration::from_secs(4))
                    .with_mean_gap(SimDuration::from_millis(20))
                    .with_popularity(PopularityModel::static_zipf(0.9).with_churn(2.0));
                let cfg = with_seed(ServiceConfig::google_like(TOPOLOGY_SEED), seed)
                    .with_result_cache(CacheConfig::lru(RESULT_CACHE_BYTES));
                let queries = w.total_queries() as usize;
                push("google-like/lru", cfg, Design::Sessions(w), queries);
            }
            Workload::FaultsOverload => {
                let sessions = match size {
                    Size::Full => FAULT_SESSIONS,
                    Size::Tiny => 60,
                };
                let w = SessionWorkload::new(sessions)
                    .with_queries_per_session(2)
                    .with_think(SimDuration::from_secs(2))
                    .with_mean_gap(SimDuration::from_millis(20));
                let queries = w.total_queries() as usize;
                let base = fault_base(seed);
                let arms = [
                    ("naive", base.clone()),
                    (
                        "shed+budget",
                        base.clone()
                            .with_admission_control(FE_KNEE * 2)
                            .with_retry_budget(RetryBudget::default()),
                    ),
                    (
                        "breaker",
                        with_fetch_deadline(base.clone()).with_circuit_breaker(BreakerPolicy {
                            failure_threshold: 1,
                            cooldown: SimDuration::from_secs(2),
                        }),
                    ),
                    (
                        "protected",
                        with_fetch_deadline(base)
                            .with_hedged_fetches(SimDuration::from_millis(400))
                            .with_circuit_breaker(BreakerPolicy::default())
                            .with_admission_control(FE_KNEE * 2)
                            .with_retry_budget(RetryBudget::default())
                            .with_mapping(MappingPolicy::LoadAware(LoadAwarePolicy::default())),
                    ),
                ];
                for (label, cfg) in arms {
                    push(label, cfg, Design::Sessions(w.clone()), queries);
                }
            }
        }
        Built {
            campaign,
            scheduled,
            check_thresholds: self == Workload::FixedFe && size == Size::Full,
        }
    }
}

/// A preset built on the pinned topology, with its stochastic models
/// reseeded from the workload seed.
fn with_seed(mut cfg: ServiceConfig, seed: u64) -> ServiceConfig {
    cfg.seed = seed;
    cfg
}

/// Dataset B against client 0's default FE, the pick `fig5` makes. The
/// pick happens inside the shard world, so the descriptor stays
/// self-contained.
fn fixed_fe_design(repeats: u64) -> Design {
    Design::custom(move |sim| {
        let fe = sim.with(|w, _| w.default_fe(0));
        DatasetB::against(fe).with_repeats(repeats).schedule(sim);
    })
}

/// Per-FE concurrency knee of the fault workload's load model.
const FE_KNEE: u32 = 6;

/// What every fault arm shares: a tight load knee, browser-style client
/// retries, a short DNS TTL, and one fault plan — an FE outage, a BE
/// outage, an FE brownout and burst loss on a few client paths.
fn fault_base(seed: u64) -> ServiceConfig {
    let s = SimTime::from_secs;
    let mut plan = FaultPlan::new()
        .fe_outage(1, s(8), s(14))
        .be_outage(0, s(20), s(30))
        .fe_brownout(2, s(34), s(44), 6.0);
    for client in 0..4 {
        plan = plan.client_burst_loss(client, 0, s(5), s(50), BurstLossParams::moderate());
    }
    with_seed(ServiceConfig::google_like(TOPOLOGY_SEED), seed)
        .with_faults(plan)
        .with_load_model(LoadModel {
            fe_capacity: FE_KNEE,
            be_capacity: 48,
            max_slowdown: 12.0,
        })
        .with_client_retry(RetryPolicy {
            deadline: SimDuration::from_secs(3),
            max_retries: 3,
            base_backoff: SimDuration::from_millis(200),
            jitter: 0.3,
        })
        .with_dns_ttl(SimDuration::from_secs(5))
}

/// An FE-side fetch deadline: past it the FE fails over to the next live
/// BE (and the breaker, when armed, counts a failure).
fn with_fetch_deadline(cfg: ServiceConfig) -> ServiceConfig {
    cfg.with_fe_fetch_deadline(SimDuration::from_millis(1_500))
}
