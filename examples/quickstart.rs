//! Quickstart: one search query against each service archetype, with
//! the paper's measurement vector printed next to the simulator's
//! ground truth.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fecdn::prelude::*;

/// Issues one query against a full service world and prints the
/// client-side parameters, the Eq. (1) fetch-time bracket and the
/// ground truth it should contain.
fn one_query(name: &str, scenario: &Scenario, cfg: ServiceConfig) {
    let mut sim = scenario.spec(cfg, scenario.seed).build();
    sim.with(|w, net| {
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: None,
                instant_followup: false,
            },
        );
    });
    let q = run_stream_fed(&mut sim, &Classifier::ByMarker, CollectSink::new(), None)
        .output
        .queries
        .remove(0);
    println!("== {name} ==");
    println!(
        "  vantage 0 → default FE, RTT (handshake est.)  {:>8.2} ms",
        q.params.rtt_ms
    );
    println!(
        "  Tstatic  (t4 − t2)                            {:>8.2} ms",
        q.params.t_static_ms
    );
    println!(
        "  Tdynamic (t5 − t2)                            {:>8.2} ms",
        q.params.t_dynamic_ms
    );
    println!(
        "  Tdelta   (t5 − t4)                            {:>8.2} ms",
        q.params.t_delta_ms
    );
    println!(
        "  overall  (te − tb)                            {:>8.2} ms",
        q.params.overall_ms
    );
    let bounds = FetchBounds::from_params(&q.params);
    println!(
        "  fetch-time bracket (eq. 1)              [{:>7.2}, {:>7.2}] ms",
        bounds.lower_ms, bounds.upper_ms
    );
    if let Some(truth) = q.true_fetch_ms {
        println!(
            "  true fetch time (simulator ground truth)      {:>8.2} ms  → in bracket: {}",
            truth,
            bounds.contains(truth, 12.0)
        );
    }
    println!(
        "  true BE processing time                        {:>8.2} ms",
        q.proc_ms
    );
    println!();
}

fn main() {
    let scenario = Scenario::small(42);
    one_query(
        "bing-like (Akamai FE, public FE↔BE transit)",
        &scenario,
        ServiceConfig::bing_like(scenario.seed),
    );
    one_query(
        "google-like (own FE, private WAN)",
        &scenario,
        ServiceConfig::google_like(scenario.seed),
    );
    println!("The directly unobservable FE↔BE fetch time is bracketed by the");
    println!("two client-side observables — the paper's Eq. (1) at work.");
}
