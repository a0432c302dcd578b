//! Sharded parallel campaign execution.
//!
//! A [`Campaign`] is a deterministically ordered list of independent
//! [`RunDescriptor`]s — each one a full simulator world: a
//! `ServiceConfig` plus an experiment design plus a derived seed. Runs
//! execute across a
//! [`std::thread::scope`] worker pool and their results are merged back
//! in descriptor order, so campaign output is byte-identical regardless
//! of worker count. The sharding boundary is the whole sim world: FE
//! queue interactions between clients *inside* one world are untouched,
//! only unrelated worlds run concurrently.
//!
//! Each run's world seed is [`simcore::rng::stream_seed`]`(campaign
//! seed, run label)`, a named child stream — adding or reordering runs
//! never perturbs the seed (and hence the packet trace) of any other
//! run. Worker count comes from `FECDN_THREADS` (default: available
//! parallelism; `1` is exactly the historical serial path).

use crate::dataset_a::DatasetA;
use crate::dataset_b::DatasetB;
use crate::runner::run_stream_fed;
use crate::scenarios::Scenario;
use crate::sessions::{SessionFeeder, SessionWorkload};
use crate::sink::{Collected, QuerySink};
use capture::Classifier;
use cdnsim::{ServiceConfig, ServiceWorld};
use inference::SessionTally;
use simcore::rng::stream_seed;
use simcore::telemetry::{MetricsRegistry, METRICS_TSV_HEADER};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tcpsim::Sim;

/// Parses a `FECDN_THREADS` value: unset, empty or `0` is `None` (use
/// the machine's available parallelism), a positive integer is that
/// many workers (`1` forces the serial path), and anything else is an
/// error naming the value. Pure, so tests can pin the parsing without
/// touching the environment or spawning a thread.
pub fn threads_from_value(value: Option<&str>) -> Result<Option<usize>, String> {
    match value {
        None | Some("") => Ok(None),
        Some(s) => match s.parse::<usize>() {
            Ok(0) => Ok(None),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!(
                "invalid FECDN_THREADS value {s:?} (expected a worker count, 0 or unset for all cores)"
            )),
        },
    }
}

/// Reads the worker count from `FECDN_THREADS` (see
/// [`threads_from_value`]). Panics on a value that is not a worker
/// count, so a typo never silently picks another worker count.
pub fn threads_from_env() -> usize {
    let value = std::env::var("FECDN_THREADS").ok();
    threads_from_value(value.as_deref())
        .unwrap_or_else(|msg| panic!("{msg}"))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// A boxed scheduling function for [`Design::Custom`].
pub type ScheduleFn = Arc<dyn Fn(&mut Sim<ServiceWorld>) + Send + Sync>;

/// The experiment design a run schedules into its world.
#[derive(Clone)]
pub enum Design {
    /// Dataset A: every client queries its default FE.
    DatasetA(DatasetA),
    /// Dataset B: every client queries one fixed FE.
    DatasetB(DatasetB),
    /// An arbitrary scheduling function. It runs on the worker thread
    /// that owns the shard, against the freshly built world — any
    /// in-world planning (picking an FE, probing geometry) happens here,
    /// not outside, so the descriptor stays self-contained.
    Custom(ScheduleFn),
    /// A generative session-slab workload: sessions are materialised
    /// lazily by a [`SessionFeeder`] as the run drains, so the run's
    /// footprint is O(live sessions), not O(total queries). Nothing is
    /// scheduled up front.
    Sessions(SessionWorkload),
}

impl Design {
    /// Wraps a scheduling closure.
    pub fn custom(f: impl Fn(&mut Sim<ServiceWorld>) + Send + Sync + 'static) -> Design {
        Design::Custom(Arc::new(f))
    }

    /// Schedules this design into a world. Session-slab designs
    /// schedule nothing here — their feeder materialises sessions
    /// chunk by chunk inside the runner.
    pub fn schedule(&self, sim: &mut Sim<ServiceWorld>) {
        match self {
            Design::DatasetA(d) => d.schedule(sim),
            Design::DatasetB(d) => d.schedule(sim),
            Design::Custom(f) => f(sim),
            Design::Sessions(_) => {}
        }
    }
}

impl fmt::Debug for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Design::DatasetA(d) => f.debug_tuple("DatasetA").field(d).finish(),
            Design::DatasetB(d) => f.debug_tuple("DatasetB").field(d).finish(),
            Design::Custom(_) => f.write_str("Custom(..)"),
            Design::Sessions(w) => f.debug_tuple("Sessions").field(w).finish(),
        }
    }
}

/// One independent run: a service configuration plus a design, with a
/// world seed derived from the campaign seed and the run label.
#[derive(Clone, Debug)]
pub struct RunDescriptor {
    /// Unique label (also the seed-derivation name and the merge key).
    pub label: String,
    /// The service under test.
    pub cfg: ServiceConfig,
    /// The experiment design.
    pub design: Design,
    /// Network-side world seed (derived; see [`Campaign::push`]).
    pub seed: u64,
    /// Timeline classifier used when processing completions.
    pub classifier: Classifier,
    /// Per-run telemetry override: `Some(on)` switches the run's
    /// registries on or off; `None` (default) leaves them enabled.
    pub metrics: Option<bool>,
}

/// Execution bookkeeping of one run, surfaced so speedups are measurable.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Worker slot that executed the run.
    pub worker: usize,
    /// Milliseconds the run waited from campaign start to pickup.
    pub queue_ms: f64,
    /// Wall-clock milliseconds of build + schedule + drive.
    pub wall_ms: f64,
    /// Peak bytes the run's sink retained (sampled per drain chunk) —
    /// the memory-boundedness signal the campaign benchmark tracks.
    pub peak_retained_bytes: usize,
    /// High-water mark of the pending-event count (only non-zero for
    /// session-slab designs) — the O(live sessions) footprint proxy.
    pub peak_pending_events: usize,
}

/// One run's report from a streaming execution: accounting plus
/// whatever the run's sink reduced to.
#[derive(Clone, Debug)]
pub struct SinkRunReport<R> {
    /// The descriptor's label.
    pub label: String,
    /// Outcome/skip accounting for the run.
    pub tally: SessionTally,
    /// Wall-clock, queue and peak-memory bookkeeping.
    pub stats: RunStats,
    /// The run's telemetry registry (see [`crate::StreamRun::metrics`]).
    pub metrics: MetricsRegistry,
    /// The sink's reduction.
    pub output: R,
}

/// The merged output of a campaign execution, in descriptor order.
#[derive(Clone, Debug)]
pub struct StreamReport<R> {
    /// Per-run reports, in descriptor order (not completion order).
    pub runs: Vec<SinkRunReport<R>>,
    /// Worker count used.
    pub threads: usize,
    /// Campaign wall-clock, ms.
    pub wall_ms: f64,
}

impl<R> StreamReport<R> {
    /// The report of the labelled run, if present.
    pub fn get(&self, label: &str) -> Option<&SinkRunReport<R>> {
        self.runs.iter().find(|r| r.label == label)
    }

    /// The sink output of the labelled run. Panics on an unknown label
    /// — descriptor labels are static strings, so a miss is a bug.
    pub fn output(&self, label: &str) -> &R {
        &self
            .get(label)
            .unwrap_or_else(|| panic!("no campaign run labelled {label:?}"))
            .output
    }

    /// The tally of the labelled run (panics on an unknown label).
    pub fn tally(&self, label: &str) -> &SessionTally {
        &self
            .get(label)
            .unwrap_or_else(|| panic!("no campaign run labelled {label:?}"))
            .tally
    }

    /// Largest per-run peak of sink-retained bytes across the campaign.
    pub fn peak_retained_bytes(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.stats.peak_retained_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Sum of per-run wall-clock times — what a serial execution would
    /// have cost.
    pub fn serial_ms(&self) -> f64 {
        self.runs.iter().map(|r| r.stats.wall_ms).sum()
    }

    /// Serial-equivalent time over actual wall-clock time.
    pub fn speedup(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.serial_ms() / self.wall_ms
        } else {
            1.0
        }
    }

    /// Renders per-run wall-clock + queue stats plus the campaign
    /// speedup line, for stderr. Never part of stdout TSV: timings vary
    /// run to run while the TSV must stay byte-identical.
    pub fn stats_table(&self) -> String {
        let mut out = format!(
            "{:<28} {:>8} {:>8} {:>10} {:>10} {:>7}\n",
            "run", "queries", "skipped", "queue_ms", "wall_ms", "worker"
        );
        for r in &self.runs {
            let t = &r.tally;
            out.push_str(&format!(
                "{:<28} {:>8} {:>8} {:>10.0} {:>10.0} {:>7}\n",
                r.label,
                t.total() - t.skipped.min(t.total()),
                t.skipped,
                r.stats.queue_ms,
                r.stats.wall_ms,
                r.stats.worker,
            ));
        }
        out.push_str(&format!(
            "campaign: {} runs on {} thread(s), wall {:.0} ms, serial-equivalent {:.0} ms, speedup {:.2}x\n",
            self.runs.len(),
            self.threads,
            self.wall_ms,
            self.serial_ms(),
            self.speedup(),
        ));
        out
    }

    /// The deterministic per-run metrics document (`metrics.tsv`
    /// format), rows in descriptor order — byte-identical at any worker
    /// count.
    pub fn metrics_tsv(&self) -> String {
        self.render_metrics(false)
    }

    /// [`StreamReport::metrics_tsv`] including wall-clock rows — stderr
    /// diagnostics only, never byte-compared.
    pub fn metrics_tsv_all(&self) -> String {
        self.render_metrics(true)
    }

    /// The shared header plus each run's rows, prefixed with its label.
    fn render_metrics(&self, include_wall: bool) -> String {
        let mut out = String::from(METRICS_TSV_HEADER);
        for r in &self.runs {
            r.metrics.render_rows(&r.label, include_wall, &mut out);
        }
        out
    }

    /// All per-run registries merged in descriptor order.
    pub fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for r in &self.runs {
            merged.merge(&r.metrics);
        }
        merged
    }

    /// The complete stderr report: the wall-clock stats table followed
    /// by the full metrics document, all buffered here and emitted by
    /// the caller in one write — per-run lines can never interleave
    /// across runs, whatever the worker contention looked like.
    pub fn stderr_report(&self) -> String {
        let mut out = self.stats_table();
        out.push_str(&self.metrics_tsv_all());
        out
    }
}

impl StreamReport<Collected> {
    /// Canonical TSV serialisation of the merged campaign — the golden
    /// trace. One `#` accounting line plus one row per processed query,
    /// per run, in descriptor order. Everything here is virtual-time or
    /// outcome data: byte-identical across worker counts and machines.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "run\tqid\tclient\tfe\tbe\tkeyword\tclass\tt_start_ms\trtt_ms\t\
             t_static_ms\tt_dynamic_ms\tt_delta_ms\toverall_ms\toutcome\n",
        );
        for r in &self.runs {
            let t = &r.tally;
            // `shed` / `no_live_fe` only appear when non-zero so
            // pre-overload / pre-strategy goldens stay byte-identical.
            let shed = if t.shed > 0 {
                format!(" shed={}", t.shed)
            } else {
                String::new()
            };
            let no_live = if t.no_live_fe > 0 {
                format!(" no_live_fe={}", t.no_live_fe)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "# run={} ok={} degraded={} retried={} timed_out={}{}{} skipped={}\n",
                r.label, t.ok, t.degraded, t.retried, t.timed_out, shed, no_live, t.skipped
            ));
            for q in &r.output.queries {
                let fe = q.fe.map_or(-1, |f| f as i64);
                out.push_str(&format!(
                    "{}\t{}\t{}\t{}\t{}\t{}\t{:?}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:?}\n",
                    r.label,
                    q.qid,
                    q.client,
                    fe,
                    q.be,
                    q.keyword,
                    q.class,
                    q.t_start_ms,
                    q.params.rtt_ms,
                    q.params.t_static_ms,
                    q.params.t_dynamic_ms,
                    q.params.t_delta_ms,
                    q.params.overall_ms,
                    q.outcome,
                ));
            }
        }
        out
    }
}

/// A deterministically ordered list of independent runs over one shared
/// [`Scenario`].
#[derive(Clone, Debug)]
pub struct Campaign {
    scenario: Scenario,
    runs: Vec<RunDescriptor>,
}

impl Campaign {
    /// An empty campaign over `scenario`.
    pub fn new(scenario: Scenario) -> Campaign {
        Campaign {
            scenario,
            runs: Vec::new(),
        }
    }

    /// The shared scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the campaign has no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The descriptors, in execution (= merge) order.
    pub fn descriptors(&self) -> &[RunDescriptor] {
        &self.runs
    }

    /// Mutable access to the descriptors, for post-hoc tweaks that
    /// apply across a whole campaign (e.g. pinning every run's mapping
    /// strategy).
    pub fn descriptors_mut(&mut self) -> &mut [RunDescriptor] {
        &mut self.runs
    }

    /// Appends a run. The world seed is derived from the campaign seed
    /// and the label, so every run owns an independent named stream and
    /// adding a run never perturbs another. Returns the descriptor for
    /// optional tweaks (`classifier`, `metrics`). Panics on a duplicate
    /// label: labels are merge keys and seed-derivation names.
    pub fn push(
        &mut self,
        label: impl Into<String>,
        cfg: ServiceConfig,
        design: Design,
    ) -> &mut RunDescriptor {
        let label = label.into();
        assert!(
            self.runs.iter().all(|r| r.label != label),
            "duplicate campaign run label {label:?}"
        );
        let seed = stream_seed(self.scenario.seed, &label);
        self.runs.push(RunDescriptor {
            label,
            cfg,
            design,
            seed,
            classifier: Classifier::ByMarker,
            metrics: None,
        });
        self.runs.last_mut().expect("just pushed")
    }

    /// Executes the campaign with the worker count from
    /// `FECDN_THREADS`: one sink per run (built by `factory` on the
    /// worker thread), folded as queries complete, reduced on
    /// quiescence, reports merged in descriptor order. Memory is
    /// O(reducer state), not O(total queries).
    pub fn execute_stream<F, S>(&self, factory: &F) -> StreamReport<S::Output>
    where
        F: Fn(&RunDescriptor) -> S + Sync,
        S: QuerySink,
        S::Output: Send,
    {
        self.execute_stream_with_threads(factory, threads_from_env())
    }

    /// [`Campaign::execute_stream`] across `threads` workers (clamped to
    /// the run count; `<= 1` runs serially on the calling thread with no
    /// pool at all). Reports are merged in descriptor order regardless
    /// of which worker finished when, so output stays byte-identical at
    /// any thread count.
    pub fn execute_stream_with_threads<F, S>(
        &self,
        factory: &F,
        threads: usize,
    ) -> StreamReport<S::Output>
    where
        F: Fn(&RunDescriptor) -> S + Sync,
        S: QuerySink,
        S::Output: Send,
    {
        let t0 = Instant::now();
        let n = self.runs.len();
        let threads = threads.max(1).min(n.max(1));
        let runs = if threads <= 1 {
            self.runs
                .iter()
                .map(|d| self.execute_one(factory, d, 0, t0))
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let mut slots: Vec<Option<SinkRunReport<_>>> = (0..n).map(|_| None).collect();
            let finished: Vec<(usize, SinkRunReport<_>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|worker| {
                        let next = &next;
                        scope.spawn(move || {
                            let mut mine = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                mine.push((
                                    i,
                                    self.execute_one(factory, &self.runs[i], worker, t0),
                                ));
                            }
                            mine
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("campaign worker panicked"))
                    .collect()
            });
            for (i, r) in finished {
                slots[i] = Some(r);
            }
            slots
                .into_iter()
                .map(|s| s.expect("every run index was dispatched exactly once"))
                .collect()
        };
        StreamReport {
            runs,
            threads,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Builds, schedules and drives one shard to quiescence, folding
    /// completions into a fresh sink from `factory`.
    fn execute_one<S: QuerySink>(
        &self,
        factory: &impl Fn(&RunDescriptor) -> S,
        d: &RunDescriptor,
        worker: usize,
        campaign_start: Instant,
    ) -> SinkRunReport<S::Output> {
        let queue_ms = campaign_start.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let mut sim = self.scenario.spec(d.cfg.clone(), d.seed).build();
        // Per-descriptor telemetry override, applied before any event is
        // processed so the registries see the whole run or none of it.
        if let Some(on) = d.metrics {
            sim.net().metrics_mut().set_enabled(on);
            sim.with(|w, _| w.metrics_mut().set_enabled(on));
        }
        let mut feeder = match &d.design {
            Design::Sessions(w) => {
                let (n_clients, catalog) =
                    sim.with(|world, _| (world.clients().len(), world.corpus().len()));
                Some(SessionFeeder::new(w.clone(), d.seed, n_clients, catalog))
            }
            _ => {
                d.design.schedule(&mut sim);
                None
            }
        };
        let run = run_stream_fed(&mut sim, &d.classifier, factory(d), feeder.as_mut());
        let mut metrics = run.metrics;
        if metrics.is_enabled() {
            metrics.set_wall_gauge("emulator.queue_wait_ms", queue_ms);
            metrics.set_wall_gauge(
                "emulator.run_wall_ms",
                started.elapsed().as_secs_f64() * 1e3,
            );
        }
        SinkRunReport {
            label: d.label.clone(),
            tally: run.tally,
            stats: RunStats {
                worker,
                queue_ms,
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
                peak_retained_bytes: run.peak_retained_bytes,
                peak_pending_events: run.peak_pending_events,
            },
            metrics,
            output: run.output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset_a::KeywordPolicy;
    use crate::sink::CollectSink;
    use simcore::time::SimDuration;

    fn two_run_campaign(seed: u64) -> Campaign {
        let mut c = Campaign::new(Scenario::small(seed));
        let d = DatasetA {
            repeats: 2,
            spacing: SimDuration::from_secs(2),
            keywords: KeywordPolicy::Fixed(3),
        };
        c.push(
            "bing",
            ServiceConfig::bing_like(seed),
            Design::DatasetA(d.clone()),
        );
        c.push(
            "google",
            ServiceConfig::google_like(seed),
            Design::DatasetA(d),
        );
        c
    }

    #[test]
    fn thread_counts_parse_and_bad_values_are_named() {
        for all_cores in [None, Some(""), Some("0"), Some("00")] {
            assert_eq!(threads_from_value(all_cores), Ok(None), "{all_cores:?}");
        }
        assert_eq!(threads_from_value(Some("1")), Ok(Some(1)));
        assert_eq!(threads_from_value(Some("4")), Ok(Some(4)));
        for bad in ["x", "-3", "1.5", " 2", "l", "four"] {
            let err = threads_from_value(Some(bad)).unwrap_err();
            assert!(
                err.contains(&format!("FECDN_THREADS value {bad:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn merge_order_is_descriptor_order() {
        let report = two_run_campaign(51).execute_stream_with_threads(&|_| CollectSink::new(), 2);
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.runs[0].label, "bing");
        assert_eq!(report.runs[1].label, "google");
        assert!(report.get("google").is_some());
        assert!(report.get("absent").is_none());
    }

    #[test]
    fn parallel_output_matches_serial_exactly() {
        let c = two_run_campaign(52);
        let serial = c.execute_stream_with_threads(&|_| CollectSink::new(), 1);
        let parallel = c.execute_stream_with_threads(&|_| CollectSink::new(), 4);
        assert_eq!(serial.to_tsv(), parallel.to_tsv());
        assert_eq!(serial.threads, 1);
        // Thread count clamps to the run count.
        assert_eq!(parallel.threads, 2);
    }

    #[test]
    fn run_seeds_are_label_derived_and_stable() {
        let c = two_run_campaign(53);
        let d = c.descriptors();
        assert_eq!(d[0].seed, stream_seed(53, "bing"));
        assert_eq!(d[1].seed, stream_seed(53, "google"));
        assert_ne!(d[0].seed, d[1].seed);
    }

    #[test]
    #[should_panic(expected = "duplicate campaign run label")]
    fn duplicate_labels_are_rejected() {
        let mut c = Campaign::new(Scenario::small(54));
        let d = DatasetA {
            repeats: 1,
            spacing: SimDuration::from_secs(1),
            keywords: KeywordPolicy::Fixed(0),
        };
        c.push(
            "x",
            ServiceConfig::bing_like(54),
            Design::DatasetA(d.clone()),
        );
        c.push("x", ServiceConfig::bing_like(54), Design::DatasetA(d));
    }

    #[test]
    fn custom_designs_and_raw_retention_work() {
        let mut c = Campaign::new(Scenario::small(55));
        c.push(
            "custom",
            ServiceConfig::google_like(55),
            Design::custom(|sim| {
                sim.with(|w, net| {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(1),
                        cdnsim::QuerySpec {
                            client: 0,
                            keyword: 1,
                            fixed_fe: None,
                            instant_followup: false,
                        },
                    );
                });
            }),
        );
        let report = c.execute_stream_with_threads(&|_| CollectSink::with_raw(true), 2);
        let run = report.get("custom").unwrap();
        assert_eq!(run.output.queries.len(), 1);
        assert_eq!(run.output.raw.len(), 1);
        assert!(!run.output.raw[0].trace.is_empty());
        assert_eq!(run.tally.ok, 1);
    }

    #[test]
    fn stats_and_tsv_shapes() {
        let report = two_run_campaign(56).execute_stream_with_threads(&|_| CollectSink::new(), 2);
        let table = report.stats_table();
        assert!(table.contains("speedup"));
        assert!(report.serial_ms() > 0.0);
        let tsv = report.to_tsv();
        let header_cols = tsv.lines().next().unwrap().split('\t').count();
        assert_eq!(header_cols, 14);
        let first_row = tsv.lines().find(|l| l.starts_with("bing\t")).unwrap();
        assert_eq!(first_row.split('\t').count(), header_cols);
        assert!(tsv.contains("# run=bing ok="));
    }
}
