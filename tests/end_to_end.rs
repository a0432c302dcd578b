//! Integration: whole-campaign behaviours — determinism, service
//! contrasts, ablations.

use capture::Classifier;
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use fecdn::prelude::*;

fn dataset_a(seed: u64, cfg: ServiceConfig) -> Vec<ProcessedQuery> {
    let scenario = Scenario::with_size(seed, 24, 300);
    DatasetA {
        repeats: 5,
        spacing: SimDuration::from_secs(8),
        keywords: KeywordPolicy::Fixed(0),
    }
    .run(&scenario, cfg, &Classifier::ByMarker)
}

#[test]
fn campaigns_are_bit_deterministic() {
    let a = dataset_a(21, ServiceConfig::bing_like(21));
    let b = dataset_a(21, ServiceConfig::bing_like(21));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.qid, y.qid);
        assert_eq!(x.params, y.params);
        assert_eq!(x.proc_ms, y.proc_ms);
    }
}

#[test]
fn different_seeds_differ() {
    let a = dataset_a(22, ServiceConfig::bing_like(22));
    let b = dataset_a(23, ServiceConfig::bing_like(23));
    let same = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| x.params.t_dynamic_ms == y.params.t_dynamic_ms)
        .count();
    assert!(same < a.len() / 4, "{same}/{} identical", a.len());
}

#[test]
fn services_contrast_as_the_paper_reports() {
    let bing = dataset_a(24, ServiceConfig::bing_like(24));
    let google = dataset_a(24, ServiceConfig::google_like(24));
    let med = |v: Vec<f64>| stats::quantile::median(&v).unwrap();
    // Closer FEs...
    let b_rtt = med(bing.iter().map(|q| q.params.rtt_ms).collect());
    let g_rtt = med(google.iter().map(|q| q.params.rtt_ms).collect());
    assert!(b_rtt < g_rtt, "bing rtt {b_rtt} vs google {g_rtt}");
    // ...yet slower end-to-end.
    let b_td = med(bing.iter().map(|q| q.params.t_dynamic_ms).collect());
    let g_td = med(google.iter().map(|q| q.params.t_dynamic_ms).collect());
    assert!(b_td > 1.5 * g_td, "bing Tdynamic {b_td} vs google {g_td}");
    let b_ov = med(bing.iter().map(|q| q.params.overall_ms).collect());
    let g_ov = med(google.iter().map(|q| q.params.overall_ms).collect());
    assert!(b_ov > g_ov);
}

#[test]
fn overall_delay_decomposes_sanely() {
    // overall = handshake + request + response delivery; it must exceed
    // Tdynamic plus one RTT and be finite/bounded for every query.
    let out = dataset_a(25, ServiceConfig::google_like(25));
    for q in &out {
        assert!(q.params.overall_ms >= q.params.t_dynamic_ms + q.params.rtt_ms * 0.9);
        assert!(
            q.params.overall_ms < 60_000.0,
            "query took {} ms",
            q.params.overall_ms
        );
    }
}

#[test]
fn no_split_ablation_removes_fetch_ground_truth() {
    let out = dataset_a(26, ServiceConfig::google_like(26).without_split_tcp());
    assert!(!out.is_empty());
    for q in &out {
        assert!(q.fe.is_none());
        assert!(q.true_fetch_ms.is_none());
        assert!(q.params.is_consistent(0.5));
    }
}

#[test]
fn static_cache_ablation_collapses_tdelta() {
    let with_cache = dataset_a(27, ServiceConfig::bing_like(27));
    let without = dataset_a(27, ServiceConfig::bing_like(27).without_static_cache());
    let med = |v: Vec<f64>| stats::quantile::median(&v).unwrap();
    let dl_with = med(with_cache
        .iter()
        .filter(|q| q.params.rtt_ms < 40.0)
        .map(|q| q.params.t_delta_ms)
        .collect());
    let dl_without = med(without
        .iter()
        .filter(|q| q.params.rtt_ms < 40.0)
        .map(|q| q.params.t_delta_ms)
        .collect());
    assert!(dl_with > 30.0, "cached Tdelta {dl_with}");
    assert!(dl_without < 5.0, "uncached Tdelta {dl_without}");
}

#[test]
fn response_sizes_do_not_depend_on_the_client() {
    // Footnote 2 of the paper. Same keyword from every client → total
    // bytes within a tight band regardless of vantage.
    let out = dataset_a(28, ServiceConfig::google_like(28));
    let sizes: Vec<f64> = out.iter().map(|q| q.params.total_bytes as f64).collect();
    let s = stats::quantile::Summary::of(&sizes).unwrap();
    assert!(
        s.cv().unwrap() < 0.15,
        "sizes should be client-independent, cv {:?}",
        s.cv()
    );
}

#[test]
fn heavy_concurrency_one_fe_still_completes() {
    // Stress: all clients fire at the same fixed FE nearly
    // simultaneously; the FE pool must scale out and every query finish.
    let scenario = Scenario::with_size(29, 24, 100);
    let cfg = ServiceConfig::bing_like(29);
    let mut sim = scenario.build_sim(cfg);
    sim.with(|w, net| {
        let fe = w.default_fe(0);
        for c in 0..24usize {
            w.schedule_query(
                net,
                SimDuration::from_millis(1 + c as u64 * 3),
                QuerySpec {
                    client: c,
                    keyword: c as u64,
                    fixed_fe: Some(fe),
                    instant_followup: false,
                },
            );
        }
    });
    let run = run_stream_fed(&mut sim, &Classifier::ByMarker, CollectSink::new(), None);
    assert_eq!(run.output.queries.len(), 24);
}
