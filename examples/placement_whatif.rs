//! Placement what-if: sweep a single client's FE distance and watch the
//! paper's regimes switch — the concrete version of "there is a distance
//! threshold within which placing FE servers further closer to users is
//! no longer helpful".
//!
//! For one vantage we query every FE in the fleet (a super-Dataset-B)
//! and print `Tstatic` / `Tdynamic` / `Tdelta` against the RTT to that
//! FE, alongside the abstract model's prediction.
//!
//! ```sh
//! cargo run --release --example placement_whatif
//! ```

use capture::Classifier;
use fecdn::prelude::*;

fn main() {
    let scenario = Scenario::with_size(42, 20, 200);
    let cfg = ServiceConfig::google_like(scenario.seed);
    let mut sim = scenario.build_sim(cfg.clone());
    let fe_count = sim.with(|w, _| w.fe_count());
    let client = 0usize;
    sim.with(|w, net| {
        for fe in 0..fe_count {
            let be = w.be_of_fe(fe);
            w.prewarm(net, fe, be, 1);
            for r in 0..6u64 {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + r * 9_000 + fe as u64 * 311),
                    QuerySpec {
                        client,
                        keyword: 0,
                        fixed_fe: Some(fe),
                        instant_followup: false,
                    },
                );
            }
        }
    });
    let out = run_stream_fed(&mut sim, &Classifier::ByMarker, CollectSink::new(), None)
        .output
        .queries;

    // Median per FE.
    let samples: Vec<(u64, QueryParams)> = out
        .iter()
        .map(|q| (q.fe.unwrap() as u64, q.params))
        .collect();
    let mut groups = per_group_medians(&samples);
    groups.sort_by(|a, b| a.rtt_ms.partial_cmp(&b.rtt_ms).unwrap());

    // Fit the abstract model from the data: c from the nearest FE's
    // Tstatic, Tfetch from the small-RTT Tdynamic plateau.
    let c_ms = groups[0].t_static_ms - groups[0].rtt_ms;
    let plateau: Vec<f64> = groups
        .iter()
        .filter(|g| g.rtt_ms < 40.0)
        .map(|g| g.t_dynamic_ms)
        .collect();
    let t_fetch = stats::quantile::median(&plateau).unwrap();
    let model = ModelPrediction {
        c_ms,
        k_rounds: 1.0,
        t_fetch_ms: t_fetch,
    };
    println!(
        "fitted model: c = {c_ms:.1} ms, Tfetch = {t_fetch:.1} ms, threshold = {:?} ms\n",
        model.rtt_threshold_ms().map(|t| t.round())
    );
    println!(
        "{:>4} {:>9} | {:>9} {:>9} {:>8} | {:>10} {:>9}",
        "FE", "RTT(ms)", "Tstatic", "Tdynamic", "Tdelta", "model Tdyn", "model Δ"
    );
    for g in &groups {
        println!(
            "{:>4} {:>9.1} | {:>9.1} {:>9.1} {:>8.1} | {:>10.1} {:>9.1}",
            g.group,
            g.rtt_ms,
            g.t_static_ms,
            g.t_dynamic_ms,
            g.t_delta_ms,
            model.t_dynamic_ms(g.rtt_ms),
            model.t_delta_ms(g.rtt_ms),
        );
    }
    println!();
    println!("Below the threshold, Tdynamic is flat: a closer FE does not deliver");
    println!("results sooner. To improve further, optimize the fetch time itself —");
    println!("the paper's concluding advice.");
}
