//! Ablation — FE static-content cache on vs off.
//!
//! The FE's first documented role (Sec. 2) is caching the static portion
//! and delivering it "immediately upon receiving a user's request".
//! Turning the cache off forces the static bytes to ride the BE
//! response, so their delivery inherits the whole fetch time.
//!
//! Asserted:
//! * small-RTT `Tstatic` inflates by roughly the fetch time without the
//!   cache;
//! * `Tdelta` collapses to ~0 everywhere (static and dynamic arrive
//!   together) — the early-page-paint benefit disappears;
//! * the *final* byte (overall delay) changes much less: the cache's
//!   value is perceived latency of the page head, not total transfer.

use super::{ClaimRun, Tsv};
use crate::{campaign, execute_stream, Scale};
use cdnsim::{QuerySpec, ServiceConfig};
use emulator::{Design, FoldSink};
use simcore::time::SimDuration;
use stats::QuantileAcc;

/// Per-run reducers over the four columns the ablation compares.
struct Cols {
    ts: QuantileAcc,
    dl: QuantileAcc,
    ov: QuantileAcc,
    fetch: QuantileAcc,
}

/// Clients within 30 ms of their default FE, `repeats` queries each.
fn small_rtt_design(repeats: u64) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            let close: Vec<usize> = (0..w.clients().len())
                .filter(|&c| w.client_fe_rtt_ms(c, w.default_fe(c)) < 30.0)
                .collect();
            for (i, &client) in close.iter().enumerate() {
                for r in 0..repeats {
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(1 + r * 10_000 + i as u64 * 61),
                        QuerySpec {
                            client,
                            keyword: 0,
                            fixed_fe: None,
                            instant_followup: false,
                        },
                    );
                }
            }
        });
    })
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let repeats = match scale {
        Scale::Quick => 8,
        Scale::Paper => 40,
    };

    let mut c = campaign(scale, seed);
    c.push(
        "cache-on",
        ServiceConfig::bing_like(seed),
        small_rtt_design(repeats),
    );
    c.push(
        "cache-off",
        ServiceConfig::bing_like(seed).without_static_cache(),
        small_rtt_design(repeats),
    );
    let report = execute_stream(&c, &|_| {
        FoldSink::new(
            Cols {
                ts: QuantileAcc::exact(),
                dl: QuantileAcc::exact(),
                ov: QuantileAcc::exact(),
                fetch: QuantileAcc::exact(),
            },
            |s: &mut Cols, q| {
                s.ts.push(q.params.t_static_ms);
                s.dl.push(q.params.t_delta_ms);
                s.ov.push(q.params.overall_ms);
                if let Some(f) = q.true_fetch_ms {
                    s.fetch.push(f);
                }
            },
        )
    });
    let cached = report.output("cache-on");
    let uncached = report.output("cache-off");

    let med = |acc: &QuantileAcc| acc.median().unwrap();
    let ts_c = med(&cached.ts);
    let ts_u = med(&uncached.ts);
    let dl_c = med(&cached.dl);
    let dl_u = med(&uncached.dl);
    let ov_c = med(&cached.ov);
    let ov_u = med(&uncached.ov);
    let fetch = med(&cached.fetch);

    let mut tsv = Tsv::new(&["config", "t_static_ms", "t_delta_ms", "overall_ms"]);
    tsv.row(&[
        "static-cache-on".into(),
        format!("{ts_c:.3}"),
        format!("{dl_c:.3}"),
        format!("{ov_c:.3}"),
    ]);
    tsv.row(&[
        "static-cache-off".into(),
        format!("{ts_u:.3}"),
        format!("{dl_u:.3}"),
        format!("{ov_u:.3}"),
    ]);

    eprintln!("median fetch time (ground truth): {fetch:.0} ms");
    eprintln!("Tstatic: cached {ts_c:.1} ms → uncached {ts_u:.1} ms");
    eprintln!("Tdelta:  cached {dl_c:.1} ms → uncached {dl_u:.1} ms");
    eprintln!("overall: cached {ov_c:.0} ms → uncached {ov_u:.0} ms");
    let mut run = ClaimRun::default();
    run.check(
        "uncached Tstatic inflates by roughly the fetch time",
        "",
        ts_u > ts_c + 0.6 * fetch,
    );
    run.check(
        "uncached Tdelta collapses to ~0",
        "",
        dl_u < 5.0 && dl_c > 25.0,
    );
    run.check(
        "overall delay changes far less than Tstatic does",
        "",
        (ov_u - ov_c).abs() < 0.5 * (ts_u - ts_c),
    );
    run.with_tsv(tsv)
}
