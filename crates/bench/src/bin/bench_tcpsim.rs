//! Canonical simulator-throughput benchmark: events/sec of the `tcpsim`
//! packet hot path, with tracing on and off.
//!
//! Every experiment binary in this workspace is a consumer of the
//! per-segment discrete-event core; this benchmark pins its throughput
//! so perf regressions show up as a number, not as mysteriously slow
//! campaigns. Two workloads:
//!
//! * `bulk` — a handful of long transfers (many-chunk responses, light
//!   loss): the window-growth / ACK-clock steady state, dominated by
//!   data-segment construction (`meta_for_range`) and, with tracing on,
//!   recording the opener's capture.
//! * `mixed` — thousands of short staggered sessions with loss: the
//!   handshake / teardown / retransmission paths and the per-connection
//!   capture hand-over, the shape campaign runners actually produce.
//!
//! Every connection is opened captured, as the measurement harness opens
//! each query's client connection, so tracing records only the opener's
//! end. Each (workload × tracing) cell is run `repeats` times; the best
//! wall-clock is the headline (minimum is the right estimator for a
//! deterministic computation on a noisy machine), with the median and
//! interquartile range beside it to show the spread. Results go to
//! stdout as a human summary and to `BENCH_tcpsim.json` in the working
//! directory; `scripts/ci.sh` runs the `--smoke` mode and compares
//! against the committed `BENCH_tcpsim.baseline.json`.
//!
//! Usage: `bench_tcpsim [--smoke] [--out PATH]`

use simcore::time::SimDuration;
use simcore::{EventQueue, HeapQueue};
use stats::quantile::{iqr, median};
use std::collections::HashMap;
use std::time::Instant;
use tcpsim::{
    App, ConnId, DeliveredSpan, End, Marker, Net, NodeId, PathParams, PktDir, Sim, TcpOptions,
};

/// Per-connection bookkeeping of the benchmark application.
struct ConnState {
    req_got: u64,
    resp_got: u64,
    resp_len: u64,
}

/// A client/server app: every connection carries one request and one
/// chunked response (alternating Static/Dynamic spans, so segments
/// regularly straddle chunk boundaries and carry 2 meta spans — the
/// common case the inline span representation is sized for).
struct BenchApp {
    request: u64,
    response: u64,
    chunks: u32,
    /// Take each connection's capture as soon as it completes, as the
    /// measurement harness does (exercises `release`).
    drain: bool,
    conns: HashMap<ConnId, ConnState>,
    finished: usize,
    drained_events: u64,
}

impl BenchApp {
    fn new(request: u64, response: u64, chunks: u32, drain: bool) -> BenchApp {
        BenchApp {
            request,
            response,
            chunks,
            drain,
            conns: HashMap::new(),
            finished: 0,
            drained_events: 0,
        }
    }
}

impl App for BenchApp {
    fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
        if end == End::A {
            let req = self.request;
            self.conns.insert(
                conn,
                ConnState {
                    req_got: 0,
                    resp_got: 0,
                    resp_len: 0,
                },
            );
            net.send(conn, End::A, req, Marker::Request, conn.0 as u64);
        }
    }

    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, spans: &[DeliveredSpan]) {
        let bytes: u64 = spans.iter().map(|s| s.len as u64).sum();
        let st = match self.conns.get_mut(&conn) {
            Some(s) => s,
            None => return,
        };
        match end {
            End::B => {
                st.req_got += bytes;
                if st.req_got == self.request {
                    // Respond in alternating static/dynamic chunks.
                    let n = self.chunks.max(1) as u64;
                    let base = self.response / n;
                    let mut sent = 0u64;
                    for i in 0..n {
                        let len = if i == n - 1 {
                            self.response - sent
                        } else {
                            base
                        };
                        sent += len;
                        let (marker, content) = if i % 2 == 0 {
                            (Marker::Static, 1)
                        } else {
                            (Marker::Dynamic, 1000 + conn.0 as u64 * n + i)
                        };
                        st.resp_len += len;
                        net.send(conn, End::B, len, marker, content);
                    }
                    net.close(conn, End::B);
                }
            }
            End::A => {
                st.resp_got += bytes;
                if st.resp_got == self.response {
                    net.close(conn, End::A);
                }
            }
        }
    }

    fn on_fin(&mut self, net: &mut Net, conn: ConnId, end: End) {
        if end == End::A {
            self.finished += 1;
            self.conns.remove(&conn);
            if self.drain {
                let events = net.release(conn).unwrap_or_default();
                self.drained_events += events.len() as u64;
                // Touch the payload labelling so the compiler cannot
                // discard the recorded spans.
                self.drained_events += events
                    .iter()
                    .filter(|e| e.dir == PktDir::Rx && e.meta.iter().any(|m| m.len == 0))
                    .count() as u64;
            }
        }
    }
}

/// One measured run.
struct Cell {
    events: u64,
    recorded: u64,
    wall_s: f64,
    finished: usize,
}

/// The best of a cell's repeats, with the spread of all of them.
struct Repeated {
    best: Cell,
    median_wall_s: f64,
    iqr_wall_s: f64,
}

impl Cell {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
    fn recorded_per_sec(&self) -> f64 {
        self.recorded as f64 / self.wall_s
    }
}

#[derive(Clone, Copy)]
struct Workload {
    name: &'static str,
    sessions: u32,
    response: u64,
    chunks: u32,
    rtt_ms: f64,
    loss: f64,
}

fn run_workload(w: &Workload, tracing: bool, telemetry: bool) -> Cell {
    let app = BenchApp::new(400, w.response, w.chunks, tracing);
    let mut sim = Sim::new(42, app);
    sim.net().set_tracing(tracing);
    // Explicit per-cell telemetry gate: cells must not depend on the
    // ambient FECDN_METRICS value.
    sim.net().metrics_mut().set_enabled(telemetry);
    for s in 0..w.sessions {
        let path = PathParams::lossy(w.rtt_ms, w.loss);
        sim.net().open_captured(
            NodeId(2 * s),
            NodeId(2 * s + 1),
            path,
            TcpOptions::default(),
            TcpOptions::default(),
            s as u64,
        );
    }
    let t0 = Instant::now();
    sim.run();
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    let events = sim.net().events_processed();
    let recorded = sim.net().trace_recorded();
    let app = sim.into_app();
    assert_eq!(
        app.finished, w.sessions as usize,
        "{}: every session must complete",
        w.name
    );
    Cell {
        events,
        recorded,
        wall_s,
        finished: app.finished,
    }
}

fn best_of(w: &Workload, tracing: bool, telemetry: bool, repeats: u32) -> Repeated {
    let mut best: Option<Cell> = None;
    let mut walls = Vec::new();
    for _ in 0..repeats {
        let c = run_workload(w, tracing, telemetry);
        walls.push(c.wall_s);
        if best.as_ref().is_none_or(|b| c.wall_s < b.wall_s) {
            best = Some(c);
        }
    }
    Repeated {
        best: best.unwrap(),
        median_wall_s: median(&walls).unwrap(),
        iqr_wall_s: iqr(&walls).unwrap(),
    }
}

/// Paired telemetry-overhead measurement on one workload: interleaved
/// off/on runs with alternating order (so machine drift and warm-up hit
/// both arms alike), overhead estimated as the *median of per-pair
/// wall-clock ratios* — the estimator PR3 established for close-rate
/// comparisons on a shared noisy host, where min-of-N of each arm
/// separately still swings by ±15%. Returns `(eps_off, eps_on,
/// overhead_pct)`; panics if telemetry changed the simulated trajectory
/// — the registry is observe-only by contract.
fn telemetry_overhead(w: &Workload, tracing: bool, pairs: u32) -> (f64, f64, f64) {
    let mut ratios = Vec::new();
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut events = 0u64;
    for i in 0..pairs {
        // Alternate which arm runs first within the pair.
        let (off, on) = if i % 2 == 0 {
            let off = run_workload(w, tracing, false);
            let on = run_workload(w, tracing, true);
            (off, on)
        } else {
            let on = run_workload(w, tracing, true);
            let off = run_workload(w, tracing, false);
            (off, on)
        };
        assert_eq!(
            off.events, on.events,
            "{}: telemetry must not change the event trajectory",
            w.name
        );
        events = off.events;
        ratios.push(on.wall_s / off.wall_s);
        best_off = best_off.min(off.wall_s);
        best_on = best_on.min(on.wall_s);
    }
    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[ratios.len() / 2];
    let overhead_pct = 100.0 * (median_ratio - 1.0);
    (
        events as f64 / best_off,
        events as f64 / best_on,
        overhead_pct,
    )
}

/// Drives one scheduler engine through a fixed schedule/pop trajectory:
/// a warm-up fill to a realistic working set, then a steady state of
/// interleaved schedules and pops at RTT-scale offsets, then a full
/// drain. Both engines expose the same inherent API but share no trait,
/// hence the macro.
macro_rules! sched_drive {
    ($q:expr, $fill:expr, $steady:expr) => {{
        let q = $q;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut id = 0u64;
        let mut acc = 0u64;
        for _ in 0..$fill {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule_in(SimDuration::from_nanos(x % 400_000_000), id);
            id += 1;
        }
        for _ in 0..$steady {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule_in(SimDuration::from_nanos(x % 400_000_000), id);
            id += 1;
            if let Some((t, e)) = q.pop() {
                acc ^= e ^ t.as_nanos();
            }
        }
        while let Some((t, e)) = q.pop() {
            acc ^= e ^ t.as_nanos();
        }
        acc
    }};
}

/// Paired wheel-vs-heap scheduler microbenchmark: the same pseudo-random
/// schedule/pop trajectory through the timing-wheel `EventQueue` and the
/// `HeapQueue` reference, alternating order within each pair, speedup
/// taken as the median of per-pair wall-clock ratios. Being paired and
/// in-process, this is far less noisy than comparing two separately-run
/// benchmark invocations — it is the number the CI tripwire guards.
fn wheel_speedup_vs_heap(pairs: u32, fill: u64, steady: u64) -> f64 {
    let mut ratios = Vec::new();
    for i in 0..pairs {
        let time_wheel = || {
            let t = Instant::now();
            let acc = sched_drive!(&mut EventQueue::new(), fill, steady);
            (t.elapsed().as_secs_f64().max(1e-9), acc)
        };
        let time_heap = || {
            let t = Instant::now();
            let acc = sched_drive!(&mut HeapQueue::new(), fill, steady);
            (t.elapsed().as_secs_f64().max(1e-9), acc)
        };
        let ((ww, wa), (hw, ha)) = if i % 2 == 0 {
            (time_wheel(), time_heap())
        } else {
            let h = time_heap();
            (time_wheel(), h)
        };
        assert_eq!(wa, ha, "engines must pop identical streams");
        ratios.push(hw / ww);
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_tcpsim.json".to_string());
    let scale = if smoke { 1u64 } else { 4 };
    let repeats = 7u32;

    let workloads = [
        Workload {
            name: "bulk",
            sessions: 8,
            response: 2_000_000 * scale,
            chunks: 64,
            rtt_ms: 40.0,
            loss: 0.002,
        },
        Workload {
            name: "mixed",
            sessions: (500 * scale) as u32,
            response: 30_000,
            chunks: 12,
            rtt_ms: 80.0,
            loss: 0.01,
        },
    ];

    let mut rows = Vec::new();
    let mut tot = [(0u64, 0u64, 0f64), (0u64, 0u64, 0f64)]; // [off, on] = (events, recorded, wall)
    for w in &workloads {
        for (ti, tracing) in [false, true].into_iter().enumerate() {
            let r = best_of(w, tracing, true, repeats);
            let c = &r.best;
            eprintln!(
                "{:>5} tracing={:<5} events {:>9}  recorded {:>9}  wall {:>8.1} ms (median {:.1}, IQR {:.2})  {:>10.0} events/s  {:>10.0} rec pkts/s  ({} sessions)",
                w.name,
                tracing,
                c.events,
                c.recorded,
                c.wall_s * 1e3,
                r.median_wall_s * 1e3,
                r.iqr_wall_s * 1e3,
                c.events_per_sec(),
                c.recorded_per_sec(),
                c.finished,
            );
            tot[ti].0 += c.events;
            tot[ti].1 += c.recorded;
            tot[ti].2 += c.wall_s;
            rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"tracing\": {}, \"events\": {}, ",
                    "\"recorded_pkts\": {}, \"wall_ms\": {:.3}, \"wall_ms_median\": {:.3}, ",
                    "\"wall_ms_iqr\": {:.3}, \"events_per_sec\": {:.0}, ",
                    "\"recorded_pkts_per_sec\": {:.0}}}"
                ),
                w.name,
                tracing,
                c.events,
                c.recorded,
                c.wall_s * 1e3,
                r.median_wall_s * 1e3,
                r.iqr_wall_s * 1e3,
                c.events_per_sec(),
                c.recorded_per_sec(),
            ));
        }
    }

    let eps_off = tot[0].0 as f64 / tot[0].2;
    let eps_on = tot[1].0 as f64 / tot[1].2;
    let rps_on = tot[1].1 as f64 / tot[1].2;
    eprintln!(
        "total tracing=off {:.0} events/s | tracing=on {:.0} events/s, {:.0} recorded pkts/s",
        eps_off, eps_on, rps_on
    );

    // Telemetry overhead on the retransmission-heavy workload (the one
    // that actually exercises the counters), tracing on — the <5%
    // overhead budget ci.sh enforces. More pairs than the throughput
    // cells have repeats: the overhead is a *difference* of two close
    // rates, so the estimator needs more draws to shake off shared-host
    // scheduling noise.
    // Cells ~4× the throughput workload (long enough to amortize
    // per-run setup, short enough that the two arms of a pair run close
    // together in time and share the host's drift), and many pairs: the
    // median of ~15 paired ratios is what actually converges on this
    // class of shared machine.
    let tel_workload = Workload {
        name: "mixed-telemetry",
        sessions: workloads[1].sessions * 4,
        ..workloads[1]
    };
    let (tel_eps_off, tel_eps_on, raw_overhead_pct) =
        telemetry_overhead(&tel_workload, true, repeats.max(21));
    // The true overhead cannot be negative (the telemetry arm strictly
    // does more work); a negative estimate is residual machine noise, so
    // the *reported* value is clamped at zero. The raw estimate still
    // goes to stderr for eyeballing estimator health.
    let overhead_pct = raw_overhead_pct.max(0.0);
    eprintln!(
        "telemetry mixed/tracing=on: off {:.0} events/s | on {:.0} events/s | overhead {:+.2}% (raw {:+.2}%)",
        tel_eps_off, tel_eps_on, overhead_pct, raw_overhead_pct
    );

    // Paired scheduler microbenchmark: the committed baseline is always
    // regenerated on the wheel itself, so an end-to-end ratio against it
    // cannot keep guarding the wheel-vs-heap win. This cell races both
    // engines in-process on the same trajectory every run.
    let sched_speedup = wheel_speedup_vs_heap(repeats.max(9), 200_000, 600_000);
    eprintln!("scheduler wheel vs heap (paired, median): {sched_speedup:.2}x");

    let json = format!(
        "{{\n  \"bench\": \"bench_tcpsim\",\n  \"mode\": \"{}\",\n  \"repeats\": {},\n  \
         \"events_per_sec_tracing_off\": {:.0},\n  \"events_per_sec_tracing_on\": {:.0},\n  \
         \"recorded_pkts_per_sec\": {:.0},\n  \
         \"events_per_sec_telemetry_off\": {:.0},\n  \"events_per_sec_telemetry_on\": {:.0},\n  \
         \"telemetry_overhead_pct\": {:.3},\n  \
         \"wheel_speedup_vs_heap\": {:.3},\n  \"cells\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        repeats,
        eps_off,
        eps_on,
        rps_on,
        tel_eps_off,
        tel_eps_on,
        overhead_pct,
        sched_speedup,
        rows.join(",\n"),
    );
    std::fs::write(&out_path, json).expect("write BENCH_tcpsim.json");
    println!("wrote {out_path}");
}
