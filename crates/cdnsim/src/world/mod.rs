//! The service world: the `tcpsim::App` that executes query lifecycles.
//!
//! A query's life (split-TCP mode, both real services):
//!
//! 1. the client opens a TCP connection to an FE (its DNS-default FE in
//!    Dataset A, a fixed FE in Dataset B) and sends the GET;
//! 2. when the GET has fully arrived, the FE spends a sampled service
//!    time (tenancy-dependent load), then *simultaneously* (a) bursts the
//!    cached static portion down the client connection and (b) forwards
//!    the query up a persistent, pre-warmed FE↔BE connection;
//! 3. the BE processes for `Tproc` (keyword-class- and load-dependent),
//!    then streams the dynamic portion back to the FE;
//! 4. once the FE holds the full dynamic portion (store-and-forward,
//!    matching the paper's definition of `Tfetch` as the time to
//!    "deliver it to the FE server"), it sends the dynamic portion after
//!    the static bytes and closes;
//! 5. the client sees the FIN — query complete; the packets captured at
//!    the client go into a [`CompletedQuery`] carrying simulator ground
//!    truth (true `Tproc`, true fetch interval, true FE overhead) against
//!    which the inference pipeline is validated.
//!
//! Ablations reroute this flow: `split_tcp = false` connects clients
//! straight to the BE; `cache_static = false` makes the static bytes ride
//! the BE response; `fe_caches_results = true` lets FEs answer repeated
//! keywords without any BE fetch.

use crate::dns::DnsMap;
use crate::fe::FeServer;
use crate::mapping::Mapper;
use crate::service::ServiceConfig;
use book::{PackedSpec, SeriesCursor, Start, StartBook};
use httpsim::{RecvProgress, RequestSpec, ResponsePlan};
use nettopo::faults::{FaultKind, FaultWindow};
use nettopo::geo::GeoPoint;
use nettopo::path::{PathModel, PathProfile};
use nettopo::sites::BeSite;
use nettopo::vantage::{AccessKind, Vantage};
use searchbe::datacenter::BeDataCenter;
use searchbe::keywords::{KeywordClass, KeywordCorpus};
use simcore::hash::HashMap;
use simcore::rng::Rng;
use simcore::telemetry::MetricsRegistry;
use simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;
use tcpsim::{
    App, Capture, ConnId, DeliveredSpan, End, LinkFault, Marker, Net, NodeId, PathParams,
};

mod actions;
mod book;
mod faults;
mod query;
#[cfg(test)]
mod tests;

/// Node-id base for front-end servers.
pub const FE_NODE_BASE: u32 = 1_000_000;
/// Node-id base for back-end data centers.
pub const BE_NODE_BASE: u32 = 2_000_000;

const WARMUP_REQ_BYTES: u64 = 2_000;
const WARMUP_RESP_BYTES: u64 = 160_000;

/// Size of the error stub an FE serves in place of the dynamic portion
/// when every back-end is unreachable past the fetch deadline.
pub const DEGRADED_STUB_BYTES: u64 = 600;
/// Content identity of the degraded-service error stub.
pub const DEGRADED_CONTENT_ID: u64 = 999_999_999_999;
/// Size of the rejection stub an FE returns when admission control sheds
/// the request (smaller than the degraded stub: nothing was attempted).
pub const SHED_STUB_BYTES: u64 = 200;
/// Content identity of the load-shed rejection stub.
pub const SHED_CONTENT_ID: u64 = 999_999_999_998;

/// How a query's lifecycle ended, from the client's point of view.
/// Terminal failure variants carry the total attempt count (first try
/// included) so budget-exhausted retries are unambiguous next to the
/// plain `Retried(n)` success case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Served normally on the first attempt.
    Ok,
    /// Served, but the dynamic portion was replaced by an error stub
    /// (graceful degradation: no back-end was reachable in time).
    Degraded,
    /// Served after `n` client retries (attempt `n` succeeded).
    Retried(u32),
    /// Never served: every attempt blew its deadline, and the retry
    /// count or budget is exhausted. The record carries the truncated
    /// trace of the final attempt.
    TimedOut {
        /// Attempts made in total (>= 1).
        attempts: u32,
    },
    /// Rejected by FE admission control: the final attempt was answered
    /// with the load-shed stub and no further retries were available.
    Shed {
        /// Attempts made in total (>= 1).
        attempts: u32,
    },
    /// Never attempted: every FE the mapping strategy could return was
    /// dead at resolution time, so the query failed fast and typed
    /// instead of spinning through DNS re-maps until its deadline.
    /// Only health-aware strategies (`DnsGeoTtl`, `LoadAware`) produce
    /// this; the default `NearestLive` keeps the historical fallback to
    /// the dead nearest FE (clients discover outages by timing out).
    NoLiveFe {
        /// Attempts made in total (>= 1).
        attempts: u32,
    },
}

impl QueryOutcome {
    /// True when the client received a usable (non-stub) response.
    pub fn served(&self) -> bool {
        matches!(self, QueryOutcome::Ok | QueryOutcome::Retried(_))
    }
}

/// A query to execute.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Index of the issuing client (into the vantage list).
    pub client: usize,
    /// Keyword id (into the corpus). Ids past the corpus end wrap
    /// modulo its size.
    pub keyword: u64,
    /// Fixed FE override (Dataset B); `None` uses the DNS default.
    pub fixed_fe: Option<usize>,
    /// Marks a correlated follow-up in a search-as-you-type session.
    pub instant_followup: bool,
}

/// One client's run of evenly spaced queries: a vantage's share of
/// Dataset A or B. Query `r` (of `count`) starts `first + spacing * r`
/// after [`ServiceWorld::schedule_series`] is called.
#[derive(Clone, Debug)]
pub struct QuerySeries {
    /// Index of the issuing client (into the vantage list).
    pub client: usize,
    /// Fixed FE override (Dataset B); `None` uses the DNS default.
    pub fixed_fe: Option<usize>,
    /// Keyword ids, cycled: query `r` uses `keywords[r % keywords.len()]`.
    /// Ids past the corpus end wrap modulo its size. Must not be empty.
    pub keywords: Vec<u64>,
    /// Delay of the first query.
    pub first: SimDuration,
    /// Gap between consecutive queries.
    pub spacing: SimDuration,
    /// Number of queries.
    pub count: u64,
}

/// A finished query with measurement trace and simulator ground truth.
#[derive(Clone, Debug)]
pub struct CompletedQuery {
    /// Query id (each attempt of a retried query gets its own).
    pub qid: u64,
    /// Issuing client.
    pub client: usize,
    /// Serving FE (`None` in the no-split-TCP ablation).
    pub fe: Option<usize>,
    /// Serving BE.
    pub be: usize,
    /// Keyword id.
    pub keyword: u64,
    /// Keyword class.
    pub class: KeywordClass,
    /// Time the client's SYN left.
    pub t_start: SimTime,
    /// Time the client consumed the server FIN (response complete).
    pub t_done: SimTime,
    /// The response layout.
    pub plan: ResponsePlan,
    /// Ground truth: BE processing time in ms (0 on FE cache hits).
    pub proc_ms: f64,
    /// Ground truth: FE request-handling overhead in ms.
    pub fe_overhead_ms: f64,
    /// Ground truth: when the FE queued the BE-bound query.
    pub fetch_start: Option<SimTime>,
    /// Ground truth: when the full BE response arrived at the FE.
    pub fetch_done: Option<SimTime>,
    /// Nominal client↔FE RTT in ms (client↔BE when split TCP is off).
    pub rtt_client_fe_ms: f64,
    /// Nominal FE↔BE RTT in ms (0 when split TCP is off).
    pub rtt_fe_be_ms: f64,
    /// FE↔BE great-circle distance in miles.
    pub dist_fe_be_miles: f64,
    /// The client's view of this attempt, as the paper's vantage points
    /// capture it: every packet the client transmitted, received or lost
    /// on its connection, in time order, from the first SYN until the
    /// attempt ended. Front-end and back-end packets are not recorded.
    pub trace: Capture,
    /// False only when no client connection was opened
    /// ([`QueryOutcome::NoLiveFe`]): the empty `trace` means "not
    /// captured", not "no packets" — downstream timeline extraction
    /// reports a typed error instead of analysing it.
    pub traced: bool,
    /// How the query ended ([`QueryOutcome::Ok`] on the happy path).
    pub outcome: QueryOutcome,
}

impl CompletedQuery {
    /// Ground-truth fetch time in ms (BE query forwarded → full response
    /// at FE), when a BE fetch happened.
    pub fn true_fetch_ms(&self) -> Option<f64> {
        match (self.fetch_start, self.fetch_done) {
            (Some(s), Some(d)) => Some(d.saturating_since(s).as_millis_f64()),
            _ => None,
        }
    }

    /// Overall user-perceived delay in ms (SYN → response complete).
    pub fn overall_ms(&self) -> f64 {
        self.t_done.saturating_since(self.t_start).as_millis_f64()
    }

    /// Heap footprint of this record: the record itself plus its
    /// capture's heap bytes. The streaming pipeline samples this to
    /// report how many bytes a sink retains.
    pub fn retained_bytes(&self) -> usize {
        std::mem::size_of::<CompletedQuery>() + self.trace.heap_bytes()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Leg {
    Client,
    /// Fetch leg `slot` of the query (see [`QueryState::legs`]).
    Fetch(usize),
    Warmup {
        fe: usize,
        be: usize,
    },
}

/// Slot of the primary fetch in [`QueryState::legs`].
const PRIMARY: usize = 0;
/// Slot of the hedge fetch in [`QueryState::legs`].
const HEDGE: usize = 1;

#[derive(Clone, Copy, Debug)]
struct ConnInfo {
    qid: u64,
    leg: Leg,
}

#[derive(Debug)]
enum Action {
    StartRetry { spec: QuerySpec, attempt: u32 },
    FeServe { qid: u64 },
    BeReply { qid: u64, attempt: u32, slot: usize },
    BeDirectReply { qid: u64 },
    ClientDeadline { qid: u64 },
    FetchDeadline { qid: u64, attempt: u32 },
    HedgeFire { qid: u64, attempt: u32 },
    FaultStart { window: usize },
    MappingEpoch,
}

/// Per-FE circuit-breaker state over BE fetch failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BreakerPhase {
    Closed,
    Open,
    HalfOpen,
}

#[derive(Clone, Copy, Debug)]
struct BreakerState {
    phase: BreakerPhase,
    fails: u32,
    opened_at: SimTime,
}

impl BreakerState {
    fn new() -> BreakerState {
        BreakerState {
            phase: BreakerPhase::Closed,
            fails: 0,
            opened_at: SimTime::ZERO,
        }
    }
}

/// One FE→BE fetch of a query's dynamic portion: the query rides a
/// pooled FE↔BE connection up, the BE processes it, and the response
/// streams back to the FE.
#[derive(Default)]
struct FetchLeg {
    be: usize,
    /// Set while the leg is open; an open leg holds `be`'s in-flight
    /// slot.
    conn: Option<ConnId>,
    /// The BE's response and processing time, once it processed the
    /// query.
    plan: Option<ResponsePlan>,
    proc_ms: f64,
    /// Query bytes at the BE, response bytes at the FE.
    query_progress: RecvProgress,
    resp_progress: RecvProgress,
    /// The BE has taken the whole query up.
    handled: bool,
}

impl FetchLeg {
    /// Points the leg at a new fetch from `be` over `conn`. `proc_ms`
    /// is kept: a query that ends before any leg completes reports the
    /// BE time its primary last saw, across failovers.
    fn open(&mut self, be: usize, conn: ConnId) {
        *self = FetchLeg {
            be,
            conn: Some(conn),
            proc_ms: self.proc_ms,
            ..FetchLeg::default()
        };
    }
}

struct QueryState {
    client: usize,
    fe: Option<usize>,
    be: usize,
    keyword: u64,
    class: KeywordClass,
    instant_followup: bool,
    fixed_fe: Option<usize>,
    attempt: u32,
    fetch_attempts: u32,
    degraded: bool,
    t_start: SimTime,
    client_conn: ConnId,
    req: RequestSpec,
    plan: Option<ResponsePlan>,
    proc_ms: f64,
    fe_overhead_ms: f64,
    fetch_start: Option<SimTime>,
    // Set when the first fetch leg's response is complete at the FE.
    fetch_done: Option<SimTime>,
    rtt_client_fe_ms: f64,
    rtt_fe_be_ms: f64,
    dist_fe_be_miles: f64,
    // Request bytes at the server end of the client connection.
    srv_progress: RecvProgress,
    request_handled: bool,
    // Whether the FE served the static portion from its cache at serve
    // time. With the default unbounded prewarmed cache this equals
    // `cfg.cache_static`; a bounded static cache can miss, in which case
    // the static bytes ride the BE response exactly as in the no-cache
    // ablation.
    static_from_cache: bool,
    // Overload machinery. `shed` marks an admission-control rejection;
    // `fe_counted` records that the query holds its FE's in-flight slot.
    shed: bool,
    fe_counted: bool,
    // The primary fetch (`PRIMARY`) and its hedge (`HEDGE`). The first
    // leg whose response completes wins and the other is cancelled.
    legs: [FetchLeg; 2],
}

/// The world: clients, FEs, BEs, pools, in-flight queries.
pub struct ServiceWorld {
    /// The service configuration in force.
    pub cfg: ServiceConfig,
    // `clients` and `corpus` are read-only and shared with every world
    // of the campaign.
    clients: Arc<[Vantage]>,
    fes: Vec<FeServer>,
    bes: Vec<(BeSite, BeDataCenter)>,
    corpus: Arc<KeywordCorpus>,
    dns: DnsMap,
    be_of_fe: Vec<usize>,
    free_pool: BTreeMap<(usize, usize), Vec<ConnId>>,
    conn_info: HashMap<ConnId, ConnInfo>,
    warmup_progress: HashMap<ConnId, (u64, u64)>,
    queries: HashMap<u64, QueryState>,
    // Armed timer actions, indexed by timer token; a slot is emptied
    // when its timer fires and reused through `free_actions`.
    actions: Vec<Option<Action>>,
    free_actions: Vec<usize>,
    // Query starts that have not begun, with one wake queued at the
    // earliest (see `book`).
    book: StartBook,
    completed: Vec<CompletedQuery>,
    next_qid: u64,
    retry_rng: Rng,
    // The client→FE mapping strategy's runtime state (caches, deflection
    // sets). `epoch_armed` tracks whether the strategy's re-mapping
    // epoch timer is currently scheduled; it is re-armed lazily at query
    // start so an idle world still quiesces.
    mapper: Mapper,
    epoch_armed: bool,
    fe_rank: HashMap<usize, Vec<usize>>,
    be_rank: HashMap<usize, Vec<usize>>,
    // Concurrency bookkeeping for the load model and admission control.
    // Maintained unconditionally (no RNG, no scheduling), consulted only
    // when a load model or overload policy is enabled.
    fe_inflight: Vec<u32>,
    be_inflight: Vec<u32>,
    // Per-client retry-token buckets (lazy refill at spend time).
    retry_tokens: HashMap<usize, (f64, SimTime)>,
    // Per-FE circuit breakers over BE fetch failures.
    breakers: Vec<BreakerState>,
    // Observe-only service-layer telemetry (cache hits, failovers, DNS
    // re-maps). Draws no randomness and schedules nothing.
    metrics: MetricsRegistry,
}

impl ServiceWorld {
    /// Builds the world: places clients against the configured fleet,
    /// computes DNS defaults and FE→nearest-BE assignments, instantiates
    /// FE and BE servers. The vantages and corpus are shared, not copied.
    pub fn new(
        cfg: ServiceConfig,
        clients: Arc<[Vantage]>,
        corpus: Arc<KeywordCorpus>,
    ) -> ServiceWorld {
        assert!(!cfg.fe_fleet.is_empty() && !cfg.be_sites.is_empty());
        let pts: Vec<GeoPoint> = clients.iter().map(|c| c.pt).collect();
        let dns = DnsMap::nearest(&pts, &cfg.fe_fleet);
        let be_of_fe: Vec<usize> = cfg
            .fe_fleet
            .iter()
            .map(|fe| {
                nettopo::geo::nearest(&fe.pt, &cfg.be_sites, |s| s.pt)
                    .unwrap()
                    .0
            })
            .collect();
        let fes: Vec<FeServer> = cfg
            .fe_fleet
            .iter()
            .map(|site| {
                let mut fe = FeServer::new(
                    cfg.seed,
                    site.clone(),
                    cfg.fe_load.service_ms.clone(),
                    cfg.fe_load.load_amplitude,
                    cfg.fe_load.load_volatility,
                    crate::fe::FeCaches {
                        results_enabled: cfg.fe_caches_results,
                        result_cache: cfg.fe_result_cache.clone(),
                        static_cache: cfg.fe_static_cache.clone(),
                    },
                );
                fe.set_workers(cfg.fe_workers);
                // Prewarm: the paper's FEs always hold the static object
                // (an unbounded static cache therefore always hits).
                fe.seed_static(cfg.composer.static_content, cfg.composer.static_bytes);
                fe
            })
            .collect();
        let bes: Vec<(BeSite, BeDataCenter)> = cfg
            .be_sites
            .iter()
            .enumerate()
            .map(|(k, site)| {
                let mut composer = cfg.composer.clone();
                composer.offset_ids(k as u64 * 100_000_000);
                let dc = BeDataCenter::new(cfg.seed, site.name, cfg.backend.clone(), composer);
                (*site, dc)
            })
            .collect();
        // Dedicated named stream: constructed unconditionally (named
        // streams are independent) but drawn from only when a retry
        // actually backs off, so fault-free runs stay byte-identical.
        let retry_rng = Rng::from_seed_and_name(cfg.seed, "cdnsim/retry");
        let n_fes = fes.len();
        let n_bes = bes.len();
        let mapper = Mapper::from_policy(&cfg.mapping, n_fes, cfg.dns_ttl);
        ServiceWorld {
            cfg,
            clients,
            fes,
            bes,
            corpus,
            dns,
            be_of_fe,
            free_pool: BTreeMap::new(),
            conn_info: HashMap::default(),
            warmup_progress: HashMap::default(),
            queries: HashMap::default(),
            actions: Vec::new(),
            free_actions: Vec::new(),
            book: StartBook::default(),
            completed: Vec::new(),
            next_qid: 1,
            retry_rng,
            mapper,
            epoch_armed: false,
            fe_rank: HashMap::default(),
            be_rank: HashMap::default(),
            fe_inflight: vec![0; n_fes],
            be_inflight: vec![0; n_bes],
            retry_tokens: HashMap::default(),
            breakers: vec![BreakerState::new(); n_fes],
            metrics: MetricsRegistry::new(),
        }
    }

    /// True when any overload machinery may observably act: gates the
    /// high-water gauges (and nothing else) so metrics documents stay
    /// byte-identical when the subsystem is disabled.
    fn overload_active(&self) -> bool {
        self.cfg.load_model.is_some() || !self.cfg.overload.is_inert()
    }

    /// Current in-flight request count of an FE (testing/experiments).
    pub fn fe_inflight(&self, fe: usize) -> u32 {
        self.fe_inflight[fe]
    }

    /// Current in-flight fetch count of a BE site (testing/experiments).
    pub fn be_inflight(&self, be: usize) -> u32 {
        self.be_inflight[be]
    }

    /// The service-layer telemetry registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the service-layer telemetry registry.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Harvests the service-layer telemetry, stamping the start book's
    /// high-water mark first. Leaves an empty registry with the same
    /// gate.
    pub fn take_metrics(&mut self) -> MetricsRegistry {
        if self.metrics.is_enabled() {
            self.metrics
                .set_gauge("cdnsim.pending_starts_hiwater", self.book.hiwater() as f64);
        }
        self.metrics.take()
    }

    /// Node id of a client.
    pub fn client_node(client: usize) -> NodeId {
        NodeId(client as u32)
    }

    /// Node id of an FE.
    pub fn fe_node(fe: usize) -> NodeId {
        NodeId(FE_NODE_BASE + fe as u32)
    }

    /// Node id of a BE.
    pub fn be_node(be: usize) -> NodeId {
        NodeId(BE_NODE_BASE + be as u32)
    }

    /// The client vantage list.
    pub fn clients(&self) -> &[Vantage] {
        &self.clients
    }

    /// The keyword corpus.
    pub fn corpus(&self) -> &KeywordCorpus {
        &self.corpus
    }

    /// The DNS-default FE of a client.
    pub fn default_fe(&self, client: usize) -> usize {
        self.dns.fe_of(client)
    }

    /// The nearest BE of an FE.
    pub fn be_of_fe(&self, fe: usize) -> usize {
        self.be_of_fe[fe]
    }

    /// FE indices ranked by distance from a client (memoized).
    fn ranked_fes(&mut self, client: usize) -> Vec<usize> {
        if let Some(r) = self.fe_rank.get(&client) {
            return r.clone();
        }
        let pt = self.clients[client].pt;
        let mut idx: Vec<usize> = (0..self.fes.len()).collect();
        idx.sort_by(|&a, &b| {
            pt.distance_miles(&self.fes[a].site.pt)
                .total_cmp(&pt.distance_miles(&self.fes[b].site.pt))
        });
        self.fe_rank.insert(client, idx.clone());
        idx
    }

    /// BE indices ranked by distance from an FE (memoized).
    fn ranked_bes(&mut self, fe: usize) -> Vec<usize> {
        if let Some(r) = self.be_rank.get(&fe) {
            return r.clone();
        }
        let pt = self.fes[fe].site.pt;
        let mut idx: Vec<usize> = (0..self.bes.len()).collect();
        idx.sort_by(|&a, &b| {
            pt.distance_miles(&self.bes[a].0.pt)
                .total_cmp(&pt.distance_miles(&self.bes[b].0.pt))
        });
        self.be_rank.insert(fe, idx.clone());
        idx
    }

    /// Number of FEs in the fleet.
    pub fn fe_count(&self) -> usize {
        self.fes.len()
    }

    /// Nominal client↔FE RTT in ms under the client's access profile.
    pub fn client_fe_rtt_ms(&self, client: usize, fe: usize) -> f64 {
        self.client_path(client, &self.fes[fe].site.pt.clone())
            .nominal_rtt_ms()
    }

    /// Nominal client↔BE RTT in ms under the client's access profile —
    /// what an ICMP ping to the data-center prefix would measure (used
    /// by the network-coordinate harness to place BEs in the embedding).
    pub fn client_be_rtt_ms(&self, client: usize, be: usize) -> f64 {
        self.client_path(client, &self.bes[be].0.pt.clone())
            .nominal_rtt_ms()
    }

    /// Nominal FE↔BE RTT in ms.
    pub fn fe_be_rtt_ms(&self, fe: usize, be: usize) -> f64 {
        PathModel::between(
            &self.fes[fe].site.pt,
            &self.bes[be].0.pt,
            &self.cfg.febe_profile,
        )
        .nominal_rtt_ms()
    }

    /// FE↔BE great-circle distance in miles.
    pub fn fe_be_distance_miles(&self, fe: usize, be: usize) -> f64 {
        self.fes[fe].site.pt.distance_miles(&self.bes[be].0.pt)
    }

    fn access_profile(&self, access: AccessKind) -> PathProfile {
        if let Some(p) = &self.cfg.access_override {
            return p.clone();
        }
        match access {
            AccessKind::Campus => PathProfile::campus_access(),
            AccessKind::Residential => PathProfile::residential_access(),
            AccessKind::Wireless => PathProfile::wireless_access(),
        }
    }

    fn client_path(&self, client: usize, to: &GeoPoint) -> PathModel {
        let v = &self.clients[client];
        PathModel::between(&v.pt, to, &self.access_profile(v.access))
    }

    fn to_params(m: &PathModel) -> PathParams {
        PathParams {
            base_owd_ms: m.base_owd_ms,
            jitter_ms: m.jitter_ms.clone(),
            loss: m.loss,
            bw_mbps: m.bw_mbps,
        }
    }

    /// Schedules a query to start `delay` from now. Its event sequence
    /// number is reserved now, as an armed timer's would be, and the
    /// start waits in the world's start book, not in the event queue.
    pub fn schedule_query(&mut self, net: &mut Net, delay: SimDuration, mut spec: QuerySpec) {
        spec.keyword %= self.corpus.len() as u64;
        let seq = net.reserve_timer_seqs(1);
        let at = net.now() + delay;
        self.book
            .insert(net, at, seq, Start::Query(PackedSpec::pack(&spec)));
    }

    /// Schedules a query series. Its `count` event sequence numbers are
    /// reserved now, in one block, exactly as `count` calls to
    /// [`ServiceWorld::schedule_query`] would take them; but the start
    /// book holds one entry per series. When a member starts, its
    /// successor is filed at the successor's reserved `(time, seq)`, so
    /// every query starts exactly where the eager schedule would have
    /// started it.
    pub fn schedule_series(&mut self, net: &mut Net, mut series: QuerySeries) {
        if series.count == 0 {
            return;
        }
        assert!(
            !series.keywords.is_empty(),
            "a query series needs a keyword"
        );
        let corpus_len = self.corpus.len() as u64;
        for k in &mut series.keywords {
            *k %= corpus_len;
        }
        let seq = net.reserve_timer_seqs(series.count);
        let at = net.now() + series.first;
        let cursor = SeriesCursor { series, member: 0 };
        self.book
            .insert(net, at, seq, Start::Series(Box::new(cursor)));
    }

    /// Drains the completed-query records accumulated so far.
    pub fn drain_completed(&mut self) -> Vec<CompletedQuery> {
        std::mem::take(&mut self.completed)
    }

    /// Number of queries still in flight.
    pub fn in_flight(&self) -> usize {
        self.queries.len()
    }
}
