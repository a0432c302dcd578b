//! Packet hot-path microbenchmark and CI tripwires: events/sec of the
//! `tcpsim` packet hot path, with tracing on and off.
//!
//! Every experiment binary in this workspace is a consumer of the
//! per-segment discrete-event core; this benchmark pins its throughput
//! so perf regressions show up as a failed run, not as mysteriously slow
//! campaigns. Two workloads:
//!
//! * `bulk` — a handful of long transfers (many-chunk responses, light
//!   loss): the window-growth / ACK-clock steady state, dominated by
//!   data-segment construction (`meta_for_range`) and, with tracing on,
//!   recording the opener's capture.
//! * `mixed` — hundreds of short staggered sessions with loss: the
//!   handshake / teardown / retransmission paths and the per-connection
//!   capture hand-over, the shape campaign runners actually produce.
//!
//! With tracing on, every connection is opened captured, as the
//! measurement harness opens each query's client connection, so tracing
//! records only the opener's end; with tracing off none is. Each
//! (workload × tracing) cell is run [`REPEATS`] times; the best
//! wall-clock is the headline (minimum is the right estimator for a
//! deterministic computation on a noisy machine), with the median and
//! interquartile range beside it to show the spread.
//!
//! The run ends with three tripwires ([`tripwires`]), one
//! `[PASS]`/`[FAIL]` line each on stderr: the tracing-on cells' best
//! walls sum to at most [`BASELINE_TRACING_ON_WALL_MS`] ÷ 0.70, enabling
//! telemetry costs under 5 %, and the timing wheel runs at least 2.0× as
//! fast as the `HeapQueue` reference. `scripts/ci.sh` runs it.
//!
//! Usage: `bench_tcpsim` (no arguments). Writes no file. Exit status: 0
//! when every tripwire holds, 1 when one fails, 2 on any argument.

use bench::claims::{report, Check};
use nettopo::PathModel;
use simcore::time::SimDuration;
use simcore::{EventQueue, HeapQueue};
use stats::quantile::{iqr, median};
use std::collections::HashMap;
use std::time::Instant;
use tcpsim::{App, ConnId, End, Marker, Net, NodeId, PktDir, Sim, TcpOptions};

/// Runs per (workload × tracing) cell; the best wall is the headline.
const REPEATS: u32 = 7;

/// Alternating off/on pairs behind the telemetry-overhead estimate:
/// enough that the median of the per-pair ratios stays well inside the
/// 5 % bound while a second run loads the same 2-core host (EXPERIMENTS.md,
/// "The packet hot path").
const TELEMETRY_PAIRS: u32 = 61;

/// Alternating wheel/heap pairs behind the scheduler speedup.
const SCHEDULER_PAIRS: u32 = 9;

/// The tracing-on cells' best walls summed, in ms (bulk 6.440 plus mixed
/// 8.210), as recorded on a 2-core shared host. The wall tripwire allows
/// this ÷ 0.70: that host's run-to-run noise is about ±19 %, so only a
/// slowdown past it reads as a regression. It gates wall time, not
/// events/sec, so a change that removes events from the same transfers
/// does not read as a slowdown.
const BASELINE_TRACING_ON_WALL_MS: f64 = 14.650;

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

    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, bytes: u64) {
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
    sim.net().metrics_mut().set_enabled(telemetry);
    let open = if tracing {
        Net::open_captured
    } else {
        Net::open
    };
    for s in 0..w.sessions {
        let path = PathModel::lossy(w.rtt_ms, w.loss);
        open(
            sim.net(),
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

/// Runs one cell [`REPEATS`] times with telemetry on.
fn best_of(w: &Workload, tracing: bool) -> Repeated {
    let mut best: Option<Cell> = None;
    let mut walls = Vec::new();
    for _ in 0..REPEATS {
        let c = run_workload(w, tracing, true);
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

/// Paired telemetry-overhead measurement on one workload, tracing on:
/// [`TELEMETRY_PAIRS`] interleaved off/on runs with alternating order
/// (so machine drift and warm-up hit both arms alike), overhead
/// estimated as the *median of per-pair wall-clock ratios* — on a
/// shared noisy host, min-of-N of each arm separately still swings by
/// ±15%. Returns `(eps_off, eps_on, overhead_pct)`; panics if telemetry
/// changed the simulated trajectory — the registry is observe-only by
/// contract.
fn telemetry_overhead(w: &Workload) -> (f64, f64, f64) {
    let mut ratios = Vec::new();
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut events = 0u64;
    for i in 0..TELEMETRY_PAIRS {
        // Alternate which arm runs first within the pair.
        let (off, on) = if i % 2 == 0 {
            let off = run_workload(w, true, false);
            let on = run_workload(w, true, true);
            (off, on)
        } else {
            let on = run_workload(w, true, true);
            let off = run_workload(w, true, false);
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
/// schedule/pop trajectory (fill 200k, then 600k steady-state
/// schedule/pop steps) through the timing-wheel `EventQueue` and the
/// `HeapQueue` reference, [`SCHEDULER_PAIRS`] pairs in alternating
/// order, speedup taken as the median of per-pair wall-clock ratios.
/// Being paired and in-process, this is far less noisy than comparing
/// two separately-run benchmark invocations.
fn wheel_speedup_vs_heap() -> f64 {
    let (fill, steady) = (200_000u64, 600_000u64);
    let mut ratios = Vec::new();
    for i in 0..SCHEDULER_PAIRS {
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

/// The three CI tripwires over a run's measurements, in order: the
/// tracing-on cells' summed best wall (ms) against
/// [`BASELINE_TRACING_ON_WALL_MS`] ÷ 0.70 (a sum of 0 means no
/// tracing-on cell ran, and fails), the telemetry overhead (%) below 5,
/// and the wheel-vs-heap speedup at least 2.0×. Values are compared
/// unrounded.
fn tripwires(on_wall_ms: f64, overhead_pct: f64, speedup: f64) -> [Check; 3] {
    let wall_limit_ms = BASELINE_TRACING_ON_WALL_MS / 0.70;
    [
        Check {
            id: "tracing-on wall within baseline / 0.70".into(),
            detail: format!(
                "{on_wall_ms:.3} ms, limit {wall_limit_ms:.3} ms = {BASELINE_TRACING_ON_WALL_MS:.3} ms / 0.70"
            ),
            pass: on_wall_ms > 0.0 && on_wall_ms <= wall_limit_ms,
        },
        Check {
            id: "telemetry overhead below 5%".into(),
            detail: format!("{overhead_pct:+.2}%"),
            pass: overhead_pct < 5.0,
        },
        Check {
            id: "timing wheel at least 2.0x the heap".into(),
            detail: format!("{speedup:.2}x"),
            pass: speedup >= 2.0,
        },
    ]
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: bench_tcpsim (takes no arguments)");
        std::process::exit(2);
    }
    let bulk = Workload {
        name: "bulk",
        sessions: 8,
        response: 2_000_000,
        chunks: 64,
        rtt_ms: 40.0,
        loss: 0.002,
    };
    let mixed = Workload {
        name: "mixed",
        sessions: 500,
        response: 30_000,
        chunks: 12,
        rtt_ms: 80.0,
        loss: 0.01,
    };

    let mut on_wall_ms = 0.0;
    for w in [&bulk, &mixed] {
        for tracing in [false, true] {
            let r = best_of(w, tracing);
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
            if tracing {
                on_wall_ms += c.wall_s * 1e3;
            }
        }
    }

    // Telemetry overhead on the retransmission-heavy workload (the one
    // that actually exercises the counters), tracing on. Cells 4× the
    // throughput workload: long enough to amortize per-run setup, short
    // enough that the two arms of a pair run close together in time and
    // share the host's drift.
    let tel_workload = Workload {
        name: "mixed-telemetry",
        sessions: mixed.sessions * 4,
        ..mixed
    };
    let (tel_eps_off, tel_eps_on, raw_overhead_pct) = telemetry_overhead(&tel_workload);
    // The true overhead cannot be negative (the telemetry arm strictly
    // does more work); a negative estimate is residual machine noise, so
    // the gated value is clamped at zero. The raw estimate still goes to
    // stderr for eyeballing estimator health.
    let overhead_pct = raw_overhead_pct.max(0.0);
    eprintln!(
        "telemetry mixed/tracing=on: off {:.0} events/s | on {:.0} events/s | overhead {:+.2}% (raw {:+.2}%)",
        tel_eps_off, tel_eps_on, overhead_pct, raw_overhead_pct
    );

    // Paired scheduler microbenchmark: the wall baseline was recorded on
    // the wheel itself, so it cannot keep guarding the wheel-vs-heap win.
    // This cell races both engines in-process on the same trajectory
    // every run.
    let sched_speedup = wheel_speedup_vs_heap();
    eprintln!("scheduler wheel vs heap (paired, median): {sched_speedup:.2}x");

    if !report(&tripwires(on_wall_ms, overhead_pct, sched_speedup)) {
        eprintln!("one or more tripwires FAILED");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pass flags of the three tripwires, in order.
    fn verdicts(on_wall_ms: f64, overhead_pct: f64, speedup: f64) -> [bool; 3] {
        tripwires(on_wall_ms, overhead_pct, speedup).map(|c| c.pass)
    }

    #[test]
    fn telemetry_overhead_must_stay_below_five_percent() {
        assert_eq!(verdicts(14.0, 4.99, 3.0), [true, true, true]);
        assert_eq!(verdicts(14.0, 5.00, 3.0), [true, false, true]);
    }

    #[test]
    fn wheel_must_stay_at_least_twice_as_fast_as_the_heap() {
        assert_eq!(verdicts(14.0, 0.0, 2.00), [true, true, true]);
        assert_eq!(verdicts(14.0, 0.0, 1.99), [true, true, false]);
    }

    #[test]
    fn tracing_on_wall_may_reach_the_baseline_over_0_70() {
        // 14.650 / 0.70 = 20.9286 ms.
        assert_eq!(verdicts(20.92, 0.0, 3.0), [true, true, true]);
        assert_eq!(verdicts(20.94, 0.0, 3.0), [false, true, true]);
    }

    #[test]
    fn a_zero_wall_sum_fails() {
        assert_eq!(verdicts(0.0, 0.0, 3.0), [false, true, true]);
    }
}
