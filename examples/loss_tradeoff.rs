//! Sec. 6's wireless scenario as a runnable what-if: how does the value
//! of FE proximity change when the last hop drops packets?
//!
//! ```sh
//! cargo run --release --example loss_tradeoff
//! ```

use capture::Classifier;
use fecdn::prelude::*;
use nettopo::path::PathProfile;

fn median_overall(
    scenario: &Scenario,
    cfg: ServiceConfig,
    client: usize,
    fe: usize,
    repeats: u64,
) -> f64 {
    let mut sim = scenario.build_sim(cfg);
    sim.with(|w, net| {
        let be = w.be_of_fe(fe);
        w.prewarm(net, fe, be, 2);
        for r in 0..repeats {
            w.schedule_query(
                net,
                SimDuration::from_millis(1 + r * 8_000),
                QuerySpec {
                    client,
                    keyword: 0,
                    fixed_fe: Some(fe),
                    instant_followup: false,
                },
            );
        }
    });
    let out = run_stream_fed(&mut sim, &Classifier::ByMarker, CollectSink::new(), None).output;
    let overall: Vec<f64> = out.queries.iter().map(|q| q.params.overall_ms).collect();
    stats::quantile::median(&overall).unwrap()
}

fn main() {
    let scenario = Scenario::with_size(42, 30, 200);
    let base = ServiceConfig::google_like(scenario.seed);
    let mut sim = scenario.build_sim(base.clone());
    let (near, far) = sim.with(|w, _| {
        let near = w.default_fe(0);
        let far = (0..w.fe_count())
            .min_by(|&a, &b| {
                let ea = (w.client_fe_rtt_ms(0, a) - 70.0).abs();
                let eb = (w.client_fe_rtt_ms(0, b) - 70.0).abs();
                ea.partial_cmp(&eb).unwrap()
            })
            .unwrap();
        (near, far)
    });
    let (rtt_near, rtt_far) =
        sim.with(|w, _| (w.client_fe_rtt_ms(0, near), w.client_fe_rtt_ms(0, far)));
    drop(sim);
    println!("client 0 served by FE {near} ({rtt_near:.1} ms) vs FE {far} ({rtt_far:.1} ms)\n");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "loss", "near (ms)", "far (ms)", "advantage"
    );
    for loss in [0.0, 0.01, 0.03, 0.05] {
        let mut profile = PathProfile::wireless_access();
        profile.loss = loss;
        let cfg = base.clone().with_access_override(profile);
        let n = median_overall(&scenario, cfg.clone(), 0, near, 20);
        let f = median_overall(&scenario, cfg, 0, far, 20);
        println!("{:>7.1}% {n:>12.1} {f:>12.1} {:>12.1}", loss * 100.0, f - n);
    }
    println!();
    println!("On a clean path, FE proximity below the fetch-time threshold buys");
    println!("little; under loss, every recovery costs ~1 RTT to the FE, so the");
    println!("near placement pulls ahead — the paper's Sec. 6 discussion.");
}
