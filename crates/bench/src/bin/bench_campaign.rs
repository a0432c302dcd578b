//! Campaign result-path benchmark: wall time and **peak retained bytes**
//! of the legacy collect-everything sink vs a bounded streaming reducer.
//!
//! Three measurements over the same two-service Dataset-A campaign:
//!
//! 1. `collect` — the pre-streaming result path ([`CollectSink`]):
//!    every processed query buffered per run;
//! 2. `stream` — a bounded reducer (capped [`SummaryAcc`]s over the
//!    overall delay and `Tdynamic`): O(reducer-state) memory;
//! 3. `stream10x` — the same streaming sink at 10× the query count.
//!    If someone reintroduces unbounded buffering on the streaming
//!    path, this peak grows ~10× instead of staying flat, and the
//!    growth check below trips.
//!
//! Emits `BENCH_campaign.json`-shaped JSON to `--out PATH` (default
//! stdout); `--smoke` shrinks the repeat counts for CI. Exit status
//! reflects the two structural checks (reduction ≥ 5×, 10× growth
//! bounded), so `scripts/ci.sh` can run it directly as a tripwire.

use bench::{check, finish, scenario, seed_from_env, Scale};
use cdnsim::ServiceConfig;
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::{Campaign, CollectSink, Design, ProcessedQuery, QuerySink, RunDescriptor};
use simcore::time::SimDuration;
use stats::SummaryAcc;
use std::time::Instant;

/// The streaming side's reducer: bounded-memory summaries of the two
/// headline columns. Cap 256 keeps each accumulator around 4 KiB no
/// matter how many queries a run sees. Unlike `FoldSink` (which opts
/// out of memory accounting), this sink reports its true footprint so
/// the reduction factor below compares real bytes on both sides.
struct StreamState {
    overall: SummaryAcc,
    t_dynamic: SummaryAcc,
}

impl QuerySink for StreamState {
    type Output = StreamState;

    fn on_query(&mut self, q: &ProcessedQuery) {
        self.overall.push(q.params.overall_ms);
        self.t_dynamic.push(q.params.t_dynamic_ms);
    }

    fn retained_bytes(&self) -> usize {
        self.overall.retained_bytes() + self.t_dynamic.retained_bytes()
    }

    fn finish(self) -> StreamState {
        self
    }
}

const STREAM_CAP: usize = 256;

fn campaign_with(seed: u64, repeats: u64) -> Campaign {
    let design = Design::DatasetA(DatasetA {
        repeats,
        spacing: SimDuration::from_secs(10),
        keywords: KeywordPolicy::Fixed(0),
    });
    let mut c = Campaign::new(scenario(Scale::Quick, seed));
    c.push("bing-like", ServiceConfig::bing_like(seed), design.clone());
    c.push("google-like", ServiceConfig::google_like(seed), design);
    c
}

/// Runs `campaign` under `factory`, returning (wall ms, peak retained
/// bytes, total queries, worker count used).
fn measure<F, S>(campaign: &Campaign, factory: &F) -> (u128, usize, usize, usize)
where
    F: Fn(&RunDescriptor) -> S + Sync,
    S: QuerySink,
    S::Output: Send,
{
    let t0 = Instant::now();
    let report = campaign.execute_stream(factory);
    let wall = t0.elapsed().as_millis();
    let queries: usize = report
        .runs
        .iter()
        .map(|r| r.tally.total() - r.tally.skipped)
        .sum();
    (wall, report.peak_retained_bytes(), queries, report.threads)
}

fn stream_sink(_: &RunDescriptor) -> StreamState {
    StreamState {
        overall: SummaryAcc::with_cap(STREAM_CAP),
        t_dynamic: SummaryAcc::with_cap(STREAM_CAP),
    }
}

fn main() {
    let seed = seed_from_env();
    let mut out_path: Option<String> = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            other => {
                eprintln!("unknown argument {other:?} (expected --smoke, --out PATH)");
                std::process::exit(2);
            }
        }
    }
    let base_repeats: u64 = if smoke { 6 } else { 24 };

    let c = campaign_with(seed, base_repeats);
    let (wall_collect, peak_collect, n_collect, threads) = measure(&c, &|_| CollectSink::new());
    let (wall_stream, peak_stream, n_stream, _) = measure(&c, &stream_sink);
    let c10 = campaign_with(seed, base_repeats * 10);
    let (wall_stream10, peak_stream10, n_stream10, _) = measure(&c10, &stream_sink);

    assert_eq!(n_collect, n_stream, "sink choice must not change coverage");
    let reduction = peak_collect as f64 / peak_stream.max(1) as f64;
    let growth = peak_stream10 as f64 / peak_stream.max(1) as f64;

    eprintln!(
        "collect:   {n_collect} queries, wall {wall_collect} ms, peak retained {peak_collect} B"
    );
    eprintln!(
        "stream:    {n_stream} queries, wall {wall_stream} ms, peak retained {peak_stream} B"
    );
    eprintln!(
        "stream10x: {n_stream10} queries, wall {wall_stream10} ms, peak retained {peak_stream10} B"
    );
    eprintln!("retained-bytes reduction {reduction:.1}x, 10x-queries growth {growth:.2}x");

    let json = format!(
        "{{\n  \"binary\": \"bench_campaign\",\n  \"threads\": {threads},\n  \"queries_base\": {n_collect},\n  \"queries_10x\": {n_stream10},\n  \"wall_collect_ms\": {wall_collect},\n  \"wall_stream_ms\": {wall_stream},\n  \"wall_stream_10x_ms\": {wall_stream10},\n  \"peak_retained_collect_bytes\": {peak_collect},\n  \"peak_retained_stream_bytes\": {peak_stream},\n  \"peak_retained_stream_10x_bytes\": {peak_stream10},\n  \"retained_reduction_factor\": {reduction:.2},\n  \"stream_10x_growth_factor\": {growth:.3}\n}}\n"
    );
    match &out_path {
        Some(p) => std::fs::write(p, &json).expect("write --out"),
        None => print!("{json}"),
    }

    let mut ok = true;
    ok &= check(
        &format!("streaming retains ≥ 5x less than collect-everything ({reduction:.1}x)"),
        reduction >= 5.0,
    );
    ok &= check(
        &format!("10x queries grow streaming peak < 3x ({growth:.2}x) — memory stays bounded"),
        growth < 3.0,
    );
    finish(ok);
}
