//! The metric and workload tables `BENCHMARK.json` is generated from.
//! `cargo run --release -- --manifest` prints the file; a test checks
//! that the committed copy matches.

use crate::workload::Workload;

/// Seconds one benchmark run measures.
pub const RUN_SECONDS: u64 = 40;

/// Directories holding the benchmark (relative to the repository root).
pub const PATHS: [&str; 1] = ["e2e_bench"];

/// How the benchmark is invoked from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "e2e_bench/Cargo.toml",
    "--",
];

/// An end-to-end metric: name, unit, better direction, regression bound
/// (share of the parent's median).
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// A per-layer metric: name, unit, better direction.
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Metrics printed with `--trace 0`.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("wall_s", "s", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("queries_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
    e2e("ok_share", "ratio", "higher", 0.02),
    e2e("sim_latency_p50_ms", "ms", "lower", 0.05),
    e2e("sim_latency_p99_ms", "ms", "lower", 0.1),
];

/// Metrics printed with `--trace 1`.
pub const PER_LAYER: [PerLayer; 42] = [
    layer("sim.run_until_s", "s", "lower"),
    layer("sim.ns_per_event", "ns", "lower"),
    layer("tcpsim.events_processed", "count", "lower"),
    layer("tcpsim.events_per_query", "events/query", "lower"),
    layer("tcpsim.trace_recorded_pkts", "count", "lower"),
    layer("tcpsim.trace_pkts_per_query", "pkts/query", "lower"),
    layer("tcpsim.retransmit_segs", "count", "lower"),
    layer("tcpsim.slab_high_water_slots", "count", "lower"),
    layer("emulator.pending_events_hiwater", "count", "lower"),
    layer("capture.extract_s", "s", "lower"),
    layer("capture.extract_pkts", "count", "lower"),
    layer("capture.extract_ns_per_pkt", "ns", "lower"),
    layer("capture.completed", "count", "higher"),
    layer("capture.timeline_ok", "count", "higher"),
    layer("capture.yield", "ratio", "higher"),
    layer("inference.params_s", "s", "lower"),
    layer("inference.reduce_s", "s", "lower"),
    layer("inference.threshold_s", "s", "lower"),
    layer("cdnsim.build_s", "s", "lower"),
    layer("cdnsim.drain_s", "s", "lower"),
    layer("cdnsim.result_cache_hits", "count", "higher"),
    layer("cdnsim.result_cache_lookups", "count", "lower"),
    layer("cdnsim.result_cache_hit_ratio", "ratio", "higher"),
    layer("cdnsim.static_cache_hits", "count", "higher"),
    layer("cdnsim.static_cache_lookups", "count", "lower"),
    layer("cdnsim.static_cache_hit_ratio", "ratio", "higher"),
    layer("cdnsim.hedge_wins", "count", "higher"),
    layer("cdnsim.hedges_launched", "count", "lower"),
    layer("cdnsim.hedge_win_ratio", "ratio", "higher"),
    layer("cdnsim.shed_queries", "count", "lower"),
    layer("cdnsim.remap_events", "count", "lower"),
    layer("cdnsim.breaker_opens", "count", "lower"),
    layer("emulator.schedule_s", "s", "lower"),
    layer("emulator.feed_s", "s", "lower"),
    layer("emulator.queue_wait_ms", "ms", "lower"),
    layer("emulator.pool_speedup", "x", "higher"),
    layer("ledger.untraced_wall_s", "s", "lower"),
    layer("ledger.traced_wall_s", "s", "lower"),
    layer("ledger.run_wall_s", "s", "lower"),
    layer("ledger.spans_s", "s", "lower"),
    layer("ledger.coverage", "ratio", "higher"),
    layer("ledger.tracing_overhead", "ratio", "lower"),
];

fn quoted(items: &[&str]) -> String {
    let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", q.join(", "))
}

/// `BENCHMARK.json`, as committed at the repository root.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}
