//! Re-mapping strategies under flash crowds — does load-aware global
//! re-mapping beat pure proximity once front-ends saturate?
//!
//! The paper's Sec. 5 attributes much of the two services' end-to-end
//! gap to *where* the client→FE mapping machinery places demand. This
//! experiment sweeps the three shipped [`MappingPolicy`] strategies
//! against a flash-crowd intensity axis (arrival gap of a burst aimed
//! at three co-located clients, i.e. three "hot" front-ends):
//!
//! * **calm** — arrivals far apart; no FE ever approaches its knee.
//!   Proximity is optimal, and load-aware mapping must not regress it
//!   (no deflection fires, so the arms track within scheduling noise).
//! * **busy / flash** — arrivals compress until the hot FEs blow past
//!   their concurrency knee. The nearest-FE mapping keeps piling
//!   demand onto saturated servers (queueing plus the processing
//!   slowdown multiplier dominate); load-aware mapping spills the
//!   crowd onto nearby idle FEs, trading tens of ms of RTT per
//!   slow-start round trip for the congestion relief.
//!
//! The strategy arms are compared *paired*: each (strategy, intensity)
//! cell runs as its own single-run campaign under the identical label
//! `map/cell`, so every arm draws the same per-run RNG streams and the
//! p95 differences are strategy effect, not run-seed noise. (Labels
//! seed the per-run RNG, so distinct labels would confound the
//! comparison.)
//!
//! Paper-shaped claim asserted: the p95 end-to-end latency *crossover
//! exists* — proximity wins (ties) when calm, load-aware wins once the
//! flash crowd saturates the hot FEs. The crossover threshold is
//! calibrated against the default seed (like `exp_loss`'s
//! relative-growth threshold): whether deflection is profitable
//! depends on the world geometry — it pays ~ΔRTT per slow-start round
//! trip to the spill targets, and seeds whose client clusters have
//! only distant alternative FEs make proximity unbeatable. Also
//! asserted at every seed: trajectories are byte-identical across
//! `FECDN_THREADS` 1 vs 4 and across same-seed reruns, re-mapping
//! telemetry is live in the saturated cell, and session accounting
//! conserves in every cell.
//!
//! The TSV is the p95 table that
//! `tests/golden/harness/exp_temapping.tsv` pins exactly.

use super::{ClaimRun, Tsv};
use crate::Scale;
use cdnsim::{FeLoadProfile, LoadAwarePolicy, LoadModel, MappingPolicy, QuerySpec, ServiceConfig};
use emulator::{Campaign, CollectSink, Collected, Design, Scenario, StreamReport};
use simcore::time::SimDuration;

/// Strategy arms swept (label, policy factory).
fn strategies() -> [(&'static str, MappingPolicy); 3] {
    [
        ("nearest", MappingPolicy::NearestLive),
        ("geo", MappingPolicy::DnsGeoTtl(Default::default())),
        (
            "loadaware",
            MappingPolicy::LoadAware(LoadAwarePolicy {
                epoch: SimDuration::from_millis(25),
                high_watermark: 2.0,
                low_watermark: 1.0,
                spill_width: 4,
            }),
        ),
    ]
}

/// Flash-crowd intensity axis: arrival gap between burst queries.
const INTENSITIES: [(&str, u64); 3] = [("calm", 400), ("busy", 12), ("flash", 2)];

/// A burst of `n` queries from three co-located clients, `gap_ms`
/// apart: the whole crowd lands on (at most) three nearest FEs.
fn crowd_design(n: usize, gap_ms: u64) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            for i in 0..n {
                w.schedule_query(
                    net,
                    SimDuration::from_millis(1 + gap_ms * i as u64),
                    QuerySpec {
                        client: i % 3,
                        keyword: i as u64,
                        fixed_fe: None,
                        instant_followup: false,
                    },
                );
            }
        });
    })
}

/// One cell's service config: tight per-FE knees (two workers, knee of
/// two) and a shared-machine load profile make saturation expensive
/// relative to the extra RTT of a deflected, farther FE — the regime
/// where load-aware mapping should win once the crowd compresses.
fn cell_cfg(seed: u64, policy: MappingPolicy) -> ServiceConfig {
    let mut cfg = ServiceConfig::google_like(seed)
        .with_mapping(policy)
        .with_load_model(LoadModel {
            fe_capacity: 2,
            be_capacity: 64,
            max_slowdown: 20.0,
        });
    cfg.fe_load = FeLoadProfile::shared();
    cfg.fe_workers = 2;
    cfg
}

/// The whole sweep as one campaign (distinct labels): exercises the
/// multi-run sharded execution path for the thread-invariance check.
fn sweep_campaign(seed: u64, n: usize) -> Campaign {
    let mut c = Campaign::new(Scenario::with_size(seed, 10, 60));
    for (sname, policy) in strategies() {
        for (iname, gap_ms) in INTENSITIES {
            c.push(
                format!("map/{sname}/{iname}"),
                cell_cfg(seed, policy),
                crowd_design(n, gap_ms),
            )
            .metrics = Some(true);
        }
    }
    c
}

/// One paired arm: a single-run campaign under the shared `map/cell`
/// label so every arm draws identical per-run RNG streams.
fn arm_campaign(seed: u64, n: usize, policy: MappingPolicy, gap_ms: u64) -> Campaign {
    let mut c = Campaign::new(Scenario::with_size(seed, 10, 60));
    c.push(
        "map/cell".to_string(),
        cell_cfg(seed, policy),
        crowd_design(n, gap_ms),
    )
    .metrics = Some(true);
    c
}

/// Exact p95 of the run's overall end-to-end latencies.
fn p95_overall(report: &StreamReport<Collected>, label: &str) -> f64 {
    let mut v: Vec<f64> = report
        .output(label)
        .queries
        .iter()
        .map(|q| q.params.overall_ms)
        .collect();
    assert!(!v.is_empty(), "{label}: no processed queries");
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[((v.len() as f64 * 0.95).ceil() as usize - 1).min(v.len() - 1)]
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let n = match scale {
        Scale::Quick => 48usize,
        Scale::Paper => 240,
    };

    let serial = sweep_campaign(seed, n).execute_stream_with_threads(&|_| CollectSink::new(), 1);
    let sharded = sweep_campaign(seed, n).execute_stream_with_threads(&|_| CollectSink::new(), 4);

    let mut run = ClaimRun::default();
    run.check(
        "sweep byte-identical at FECDN_THREADS 1 vs 4",
        "",
        serial.to_tsv() == sharded.to_tsv(),
    );

    // Paired arm runs: identical label => identical per-run RNG, so the
    // p95 table compares strategies, not seeds. Run the whole set twice
    // and demand bit-equality for the same-seed rerun check.
    let run_arms = || -> Vec<(String, StreamReport<Collected>)> {
        let mut set = Vec::new();
        for (sname, policy) in strategies() {
            for (iname, gap_ms) in INTENSITIES {
                let report = arm_campaign(seed, n, policy, gap_ms)
                    .execute_stream_with_threads(&|_| CollectSink::new(), 1);
                set.push((format!("map/{sname}/{iname}"), report));
            }
        }
        set
    };
    let arms = run_arms();
    let arm_tsv = |set: &[(String, StreamReport<Collected>)]| {
        set.iter()
            .map(|(_, r)| r.to_tsv())
            .collect::<Vec<_>>()
            .concat()
    };
    run.check(
        "same-seed rerun reproduces every paired arm bit-exactly",
        "",
        arm_tsv(&arms) == arm_tsv(&run_arms()),
    );
    let arm = |sname: &str, iname: &str| {
        &arms
            .iter()
            .find(|(l, _)| l == &format!("map/{sname}/{iname}"))
            .unwrap()
            .1
    };

    // p95 table, one row per intensity.
    let mut p95: Vec<(&str, [f64; 3])> = Vec::new();
    for (iname, _) in INTENSITIES {
        let mut row = [0.0f64; 3];
        for (si, (sname, _)) in strategies().iter().enumerate() {
            row[si] = p95_overall(arm(sname, iname), "map/cell");
        }
        p95.push((iname, row));
    }
    let mut tsv = Tsv::new(&[
        "intensity",
        "gap_ms",
        "p95_nearest_ms",
        "p95_geo_ms",
        "p95_loadaware_ms",
    ]);
    for ((iname, gap_ms), (_, row)) in INTENSITIES.iter().zip(&p95) {
        tsv.row(&[
            iname.to_string(),
            format!("{gap_ms}"),
            format!("{:.3}", row[0]),
            format!("{:.3}", row[1]),
            format!("{:.3}", row[2]),
        ]);
    }

    // Accounting conserves in every paired cell.
    for (sname, _) in strategies() {
        for (iname, _) in INTENSITIES {
            let t = arm(sname, iname).get("map/cell").unwrap().tally;
            run.check(
                format!("accounting conserves in map/{sname}/{iname}"),
                format!("{} of {n}", t.total()),
                t.total() == n,
            );
        }
    }

    // The crossover. Calm is a paired comparison (same RNG streams), so
    // load-aware may only drift from proximity by epoch-timer
    // scheduling noise — a 2% band, one-sided because only a
    // *regression* is a bug. The flash crossover is a
    // default-seed-calibrated shape claim (see module docs): deflection
    // pays ~ΔRTT per slow-start round trip, which some world
    // geometries make unprofitable no matter the watermarks.
    let calm = &p95[0].1;
    let flash = &p95[2].1;
    run.check(
        "calm: load-aware tracks proximity within 2%",
        format!("{:.1} vs {:.1} ms", calm[2], calm[0]),
        calm[2] <= calm[0] * 1.02,
    );
    run.check(
        "flash: load-aware beats proximity on p95",
        format!("{:.1} < {:.1} ms", flash[2], flash[0]),
        flash[2] < flash[0],
    );
    let flash_la = arm("loadaware", "flash").get("map/cell").unwrap();
    let remaps = flash_la.metrics.counter("cdnsim.remap_events").unwrap_or(0);
    let hiwater = flash_la
        .metrics
        .gauge("cdnsim.fe_demand_hiwater")
        .map(|(_, max)| max)
        .unwrap_or(0.0);
    run.check(
        "re-mapping telemetry live under flash",
        format!("{remaps} remaps, hiwater {hiwater:.2}"),
        remaps > 0 && hiwater >= 1.0,
    );

    run.with_tsv(tsv)
}
