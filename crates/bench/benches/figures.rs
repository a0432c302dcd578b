//! Criterion benches: one group per paper figure/experiment, each
//! running a miniaturised version of the corresponding harness so the
//! cost of regenerating every evaluation artefact is tracked over time.
//!
//! The full-size regenerations live in the `fig*`/`exp_*`/`abl_*`
//! binaries; these benches exist to (a) keep every pipeline exercised
//! under `cargo bench` and (b) catch performance regressions in the
//! simulator core, which dominates all of them.

use capture::Classifier;
use cdnsim::{QuerySpec, ServiceConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use emulator::dataset_a::{DatasetA, KeywordPolicy};
use emulator::dataset_b::DatasetB;
use emulator::{run_stream_fed, CollectSink, Scenario};
use simcore::time::SimDuration;
use std::hint::black_box;

fn tiny_scenario() -> Scenario {
    Scenario::with_size(7, 10, 200)
}

fn bench_fig3_keyword_effect(c: &mut Criterion) {
    let sc = tiny_scenario();
    c.bench_function("fig3_keyword_effect", |b| {
        b.iter(|| {
            let mut sim = sc.build_sim(ServiceConfig::bing_like(7));
            let picks: [u64; 4] = sim.with(|w, _| {
                let p = w.corpus().fig3_picks();
                [p[0].id, p[1].id, p[2].id, p[3].id]
            });
            sim.with(|w, net| {
                let fe = w.default_fe(0);
                for (ki, &kw) in picks.iter().enumerate() {
                    for r in 0..3u64 {
                        w.schedule_query(
                            net,
                            SimDuration::from_millis(1 + r * 10_000 + ki as u64 * 2_500),
                            QuerySpec {
                                client: 0,
                                keyword: kw,
                                fixed_fe: Some(fe),
                                instant_followup: false,
                            },
                        );
                    }
                }
            });
            black_box(
                run_stream_fed(&mut sim, &Classifier::ByMarker, CollectSink::new(), None)
                    .output
                    .queries
                    .len(),
            )
        })
    });
}

fn bench_fig4_timelines(c: &mut Criterion) {
    let sc = tiny_scenario();
    c.bench_function("fig4_timelines", |b| {
        b.iter(|| {
            let mut sim = sc.build_sim(ServiceConfig::bing_like(7));
            sim.with(|w, net| {
                let fe = w.default_fe(0);
                for client in 0..5usize {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(1 + client as u64 * 4_000),
                        QuerySpec {
                            client,
                            keyword: 0,
                            fixed_fe: Some(fe),
                            instant_followup: false,
                        },
                    );
                }
            });
            let raw = run_stream_fed(
                &mut sim,
                &Classifier::ByMarker,
                CollectSink::with_raw(true),
                None,
            )
            .output
            .raw;
            let views = raw
                .iter()
                .filter(|cq| {
                    let node = cdnsim::ServiceWorld::client_node(cq.client);
                    capture::cluster_view::TimelineView::build(&cq.trace, node).is_ok()
                })
                .count();
            black_box(views)
        })
    });
}

fn bench_fig5_rtt_sweep(c: &mut Criterion) {
    let sc = tiny_scenario();
    c.bench_function("fig5_rtt_sweep", |b| {
        b.iter(|| {
            let out = DatasetB::against(0).with_repeats(2).run(
                &sc,
                ServiceConfig::google_like(7),
                &Classifier::ByMarker,
            );
            black_box(out.len())
        })
    });
}

fn bench_fig6_rtt_cdf(c: &mut Criterion) {
    let sc = tiny_scenario();
    c.bench_function("fig6_rtt_cdf", |b| {
        b.iter(|| {
            let d = DatasetA {
                repeats: 2,
                spacing: SimDuration::from_secs(5),
                keywords: KeywordPolicy::Fixed(0),
            };
            let out = d.run(&sc, ServiceConfig::bing_like(7), &Classifier::ByMarker);
            let rtts: Vec<f64> = out.iter().map(|q| q.params.rtt_ms).collect();
            black_box(stats::Ecdf::new(&rtts).fraction_le(20.0))
        })
    });
}

fn bench_fig7_default_fe(c: &mut Criterion) {
    let sc = tiny_scenario();
    c.bench_function("fig7_default_fe", |b| {
        b.iter(|| {
            let d = DatasetA {
                repeats: 3,
                spacing: SimDuration::from_secs(5),
                keywords: KeywordPolicy::Fixed(0),
            };
            let out = d.run(&sc, ServiceConfig::google_like(7), &Classifier::ByMarker);
            let samples: Vec<(u64, inference::QueryParams)> =
                out.iter().map(|q| (q.client as u64, q.params)).collect();
            black_box(inference::per_group_medians(&samples).len())
        })
    });
}

fn bench_fig8_overall_delay(c: &mut Criterion) {
    let sc = tiny_scenario();
    c.bench_function("fig8_overall_delay", |b| {
        b.iter(|| {
            let d = DatasetA {
                repeats: 4,
                spacing: SimDuration::from_secs(5),
                keywords: KeywordPolicy::Fixed(0),
            };
            let out = d.run(&sc, ServiceConfig::bing_like(7), &Classifier::ByMarker);
            let overall: Vec<f64> = out.iter().map(|q| q.params.overall_ms).collect();
            black_box(stats::BoxSummary::of(&overall))
        })
    });
}

fn bench_fig9_factoring(c: &mut Criterion) {
    let sc = tiny_scenario();
    c.bench_function("fig9_factoring", |b| {
        b.iter(|| {
            let out = DatasetB::against(0).with_repeats(4).run(
                &sc,
                ServiceConfig::google_like(7),
                &Classifier::ByMarker,
            );
            let points: Vec<(f64, f64)> = out
                .iter()
                .map(|q| (q.dist_fe_be_miles, q.params.t_dynamic_ms))
                .collect();
            black_box(inference::factoring::factor_fetch_time(&points))
        })
    });
}

fn bench_exp_caching(c: &mut Criterion) {
    let sc = tiny_scenario();
    c.bench_function("exp_caching", |b| {
        b.iter(|| {
            let probe = emulator::caching_probe::CachingProbeRun {
                fe: 0,
                repeats_per_client: 2,
                spacing: SimDuration::from_secs(3),
                max_rtt_ms: 1_000.0,
            };
            black_box(probe.run(&sc, ServiceConfig::google_like(7)).is_some())
        })
    });
}

fn bench_exp_instant(c: &mut Criterion) {
    let sc = tiny_scenario();
    c.bench_function("exp_instant", |b| {
        b.iter(|| {
            let run = emulator::instant::InstantRun {
                clients: vec![0, 1],
                keyword: 3,
                min_prefix: 3,
            };
            black_box(run.run(&sc, ServiceConfig::google_like(7)).len())
        })
    });
}

fn bench_exp_loss(c: &mut Criterion) {
    let sc = tiny_scenario();
    c.bench_function("exp_loss_tradeoff", |b| {
        b.iter(|| {
            let mut profile = nettopo::path::PathProfile::wireless_access();
            profile.loss = 0.02;
            let cfg = ServiceConfig::google_like(7).with_access_override(profile);
            let mut sim = sc.build_sim(cfg);
            sim.with(|w, net| {
                for r in 0..4u64 {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(1 + r * 5_000),
                        QuerySpec {
                            client: 0,
                            keyword: 0,
                            fixed_fe: None,
                            instant_followup: false,
                        },
                    );
                }
            });
            black_box(
                run_stream_fed(&mut sim, &Classifier::ByMarker, CollectSink::new(), None)
                    .output
                    .queries
                    .len(),
            )
        })
    });
}

fn bench_ablations(c: &mut Criterion) {
    let sc = tiny_scenario();
    let mut group = c.benchmark_group("ablations");
    for (name, cfg) in [
        (
            "abl_split_tcp",
            ServiceConfig::google_like(7).without_split_tcp(),
        ),
        (
            "abl_static_cache",
            ServiceConfig::bing_like(7).without_static_cache(),
        ),
        (
            "abl_iw_sweep",
            ServiceConfig::google_like(7).with_fe_initial_window(10),
        ),
        ("abl_fe_load", ServiceConfig::bing_like(7)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let d = DatasetA {
                    repeats: 2,
                    spacing: SimDuration::from_secs(5),
                    keywords: KeywordPolicy::Fixed(0),
                };
                black_box(d.run(&sc, cfg.clone(), &Classifier::ByMarker).len())
            })
        });
    }
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = figures;
    config = configured();
    targets =
        bench_fig3_keyword_effect,
        bench_fig4_timelines,
        bench_fig5_rtt_sweep,
        bench_fig6_rtt_cdf,
        bench_fig7_default_fe,
        bench_fig8_overall_delay,
        bench_fig9_factoring,
        bench_exp_caching,
        bench_exp_instant,
        bench_exp_loss,
        bench_ablations,
}
criterion_main!(figures);
