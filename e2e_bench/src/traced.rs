//! The traced run: the campaign runner's chunk loop, re-driven from
//! outside the simulator crates through their public entry points, with
//! a wall-clock span around every call into a layer.
//!
//! The calls and their order mirror `emulator::runner::run_stream_fed`:
//! `WorldSpec::build`, `Design::schedule` or `SessionFeeder::feed`,
//! `Sim::run_until`, `drain_completed`, `Timeline::extract`,
//! `QueryParams::from_timeline`, then the sink reducer. The traced run
//! must reproduce the untraced run's output digest; callers compare the
//! two and report the breakdown as unavailable when they differ (a
//! runner change this loop no longer mirrors).
//!
//! Spans are kept in memory as one [`Ledger`] per run — total time and
//! call count per layer — and written out once the run ends. Per-query
//! layers (extract, params, reduce) are summed over their calls.

use crate::sink::{BenchSink, RunOutput};
use capture::Timeline;
use cdnsim::ServiceWorld;
use emulator::sink::observe_outcome;
use emulator::{Campaign, Design, ProcessedQuery, QuerySink, RunDescriptor, SessionFeeder};
use inference::{QueryParams, SessionTally};
use simcore::time::SimDuration;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A layer boundary the traced run times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `WorldSpec::build`.
    Build,
    /// `Design::schedule`, or building the `SessionFeeder` of a
    /// session design.
    Schedule,
    /// Each chunk's feed step: picking the chunk deadline, then
    /// `SessionFeeder::feed` (session designs only).
    Feed,
    /// `Sim::run_until`: event wheel, tcpsim and cdnsim handlers.
    RunUntil,
    /// `ServiceWorld::drain_completed`.
    Drain,
    /// `Timeline::extract`.
    Extract,
    /// `QueryParams::from_timeline`.
    Params,
    /// The sink reducer: `on_query` plus the grouped-median finish.
    Reduce,
    /// The RTT-threshold estimate at the end of the reduction.
    Threshold,
}

impl Layer {
    /// Every layer, in the runner's call order.
    pub const ALL: [Layer; 9] = [
        Layer::Build,
        Layer::Schedule,
        Layer::Feed,
        Layer::RunUntil,
        Layer::Drain,
        Layer::Extract,
        Layer::Params,
        Layer::Reduce,
        Layer::Threshold,
    ];

    /// The per-layer metric this layer's span total is reported under.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Build => "cdnsim.build_s",
            Layer::Schedule => "emulator.schedule_s",
            Layer::Feed => "emulator.feed_s",
            Layer::RunUntil => "sim.run_until_s",
            Layer::Drain => "cdnsim.drain_s",
            Layer::Extract => "capture.extract_s",
            Layer::Params => "inference.params_s",
            Layer::Reduce => "inference.reduce_s",
            Layer::Threshold => "inference.threshold_s",
        }
    }
}

/// One run's spans, summed per layer.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Total time per layer, indexed like [`Layer::ALL`].
    pub spans: [Duration; 9],
    /// Calls per layer.
    pub calls: [u64; 9],
    /// The run's wall time, world teardown included.
    pub wall: Duration,
    /// Packets handed to `Timeline::extract`.
    pub extract_pkts: u64,
}

impl Ledger {
    /// Closes the span that started at `*mark` and opens the next one.
    fn close(&mut self, layer: Layer, mark: &mut Instant) {
        let now = Instant::now();
        let i = layer as usize;
        self.spans[i] += now - *mark;
        self.calls[i] += 1;
        *mark = now;
    }

    /// Total of one layer.
    pub fn span(&self, layer: Layer) -> Duration {
        self.spans[layer as usize]
    }

    /// Sum of every layer span.
    pub fn covered(&self) -> Duration {
        self.spans.iter().sum()
    }

    /// Adds another run's ledger.
    pub fn merge(&mut self, other: &Ledger) {
        for i in 0..self.spans.len() {
            self.spans[i] += other.spans[i];
            self.calls[i] += other.calls[i];
        }
        self.wall += other.wall;
        self.extract_pkts += other.extract_pkts;
    }

    /// The spans as text rows: layer metric, calls, total ms, share of
    /// the run's wall time; the last row is the uncovered remainder.
    pub fn render(&self, label: &str) -> String {
        let wall = self.wall.as_secs_f64().max(f64::MIN_POSITIVE);
        let mut out = String::new();
        for layer in Layer::ALL {
            let s = self.span(layer).as_secs_f64();
            out.push_str(&format!(
                "span\t{label}\t{}\t{}\t{:.3}\t{:.4}\n",
                layer.metric(),
                self.calls[layer as usize],
                s * 1e3,
                s / wall
            ));
        }
        let rest = self.wall.saturating_sub(self.covered()).as_secs_f64();
        out.push_str(&format!(
            "span\t{label}\tuncovered\t-\t{:.3}\t{:.4}\n",
            rest * 1e3,
            rest / wall
        ));
        out
    }
}

/// One traced run.
#[derive(Debug)]
pub struct TracedRun {
    /// The descriptor's label.
    pub label: String,
    /// Outcome accounting, as the runner tallies it.
    pub tally: SessionTally,
    /// The sink's reduction.
    pub output: RunOutput,
    /// The run's spans.
    pub ledger: Ledger,
}

/// A traced campaign execution, runs in descriptor order.
#[derive(Debug)]
pub struct TracedReport {
    /// Per-run results.
    pub runs: Vec<TracedRun>,
    /// Wall time of the whole execution.
    pub wall: Duration,
}

impl TracedReport {
    /// All runs' ledgers merged.
    pub fn ledger(&self) -> Ledger {
        let mut all = Ledger::default();
        for r in &self.runs {
            all.merge(&r.ledger);
        }
        all
    }
}

/// Executes `c` traced across `threads` workers, claiming descriptors in
/// order like the campaign pool does.
pub fn execute_traced<F>(c: &Campaign, factory: &F, threads: usize) -> TracedReport
where
    F: Fn(&RunDescriptor) -> BenchSink + Sync,
{
    let t0 = Instant::now();
    let descriptors = c.descriptors();
    let n = descriptors.len();
    let threads = threads.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, TracedRun)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        let d = &descriptors[i];
                        mine.push((i, run_one(c, d, factory(d))));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("traced worker panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    TracedReport {
        runs: done.into_iter().map(|(_, r)| r).collect(),
        wall: t0.elapsed(),
    }
}

/// Builds, schedules and drives one run to quiescence, timing each call.
fn run_one(c: &Campaign, d: &RunDescriptor, mut sink: BenchSink) -> TracedRun {
    let started = Instant::now();
    let mut ledger = Ledger::default();
    let mut mark = Instant::now();
    let mut sim = c.scenario().spec(d.cfg.clone(), d.seed).build();
    ledger.close(Layer::Build, &mut mark);
    if let Some(on) = d.metrics {
        sim.net().metrics_mut().set_enabled(on);
        sim.with(|w, _| w.metrics_mut().set_enabled(on));
    }
    mark = Instant::now();
    let mut feeder = match &d.design {
        Design::Sessions(w) => {
            let (n_clients, catalog) =
                sim.with(|world, _| (world.clients().len(), world.corpus().len()));
            Some(SessionFeeder::new(w.clone(), d.seed, n_clients, catalog))
        }
        design => {
            design.schedule(&mut sim);
            None
        }
    };
    ledger.close(Layer::Schedule, &mut mark);
    let mut tally = SessionTally::default();
    let mut processed = 0;
    let chunk = SimDuration::from_secs(60);
    loop {
        mark = Instant::now();
        // The runner's chunk deadline, including its skip to the next
        // pending event or session start beyond the chunk.
        let mut deadline = sim.net().now() + chunk;
        let mut next_signal = sim.net().next_event_time();
        if let Some(f) = &feeder {
            next_signal = match (next_signal, f.next_start()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        if let Some(t) = next_signal {
            deadline = deadline.max(t);
        }
        if let Some(f) = &mut feeder {
            f.feed(&mut sim, deadline);
        }
        ledger.close(Layer::Feed, &mut mark);
        mark = Instant::now();
        sim.run_until(deadline);
        ledger.close(Layer::RunUntil, &mut mark);
        let completed = sim.with(|w, _| w.drain_completed());
        ledger.close(Layer::Drain, &mut mark);
        for cq in completed {
            observe_outcome(&mut tally, cq.outcome);
            if !cq.traced {
                continue;
            }
            mark = Instant::now();
            let client = ServiceWorld::client_node(cq.client);
            let timeline = Timeline::extract(&cq.trace, client, &d.classifier);
            ledger.close(Layer::Extract, &mut mark);
            ledger.extract_pkts += cq.trace.len() as u64;
            let Ok(timeline) = timeline else {
                continue;
            };
            let params = QueryParams::from_timeline(&timeline);
            ledger.close(Layer::Params, &mut mark);
            let pq = ProcessedQuery {
                qid: cq.qid,
                client: cq.client,
                fe: cq.fe,
                be: cq.be,
                keyword: cq.keyword,
                class: cq.class,
                t_start_ms: cq.t_start.as_millis_f64(),
                params,
                rtt_nominal_ms: cq.rtt_client_fe_ms,
                rtt_fe_be_ms: cq.rtt_fe_be_ms,
                dist_fe_be_miles: cq.dist_fe_be_miles,
                proc_ms: cq.proc_ms,
                fe_overhead_ms: cq.fe_overhead_ms,
                true_fetch_ms: cq.true_fetch_ms(),
                outcome: cq.outcome,
            };
            sink.on_query(&pq);
            ledger.close(Layer::Reduce, &mut mark);
            processed += 1;
        }
        if sim.net().pending_events() == 0 && feeder.as_ref().is_none_or(|f| f.exhausted()) {
            break;
        }
    }
    tally.skipped = tally.total() - processed;
    // Harvest the registries as the runner does, so both runs do the
    // same end-of-run work.
    drop(sim.net().take_metrics());
    drop(sim.with(|w, _| w.take_metrics()));
    mark = Instant::now();
    let grouped = sink.finish_groups();
    ledger.close(Layer::Reduce, &mut mark);
    let output = grouped.estimate_threshold();
    ledger.close(Layer::Threshold, &mut mark);
    drop(sim);
    ledger.wall = started.elapsed();
    TracedRun {
        label: d.label.clone(),
        tally,
        output,
        ledger,
    }
}
