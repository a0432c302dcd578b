//! Extension — FE load as a mechanistic queueing phenomenon.
//!
//! The paper repeatedly names "the load on a FE server" among the
//! factors behind `Tstatic` (and blames Akamai's shared tenancy for
//! Bing's variance) but can only observe it indirectly. The simulator's
//! FE is an 8-slot FIFO queue, so offered load produces waiting time
//! mechanistically. This experiment sweeps the query arrival rate at one
//! FE and watches `Tstatic` (whose constant term is FE overhead) climb.
//!
//! Asserted:
//! * under light load, `Tstatic` matches the unloaded service baseline;
//! * `Tstatic` grows monotonically (within tolerance) with offered load;
//! * saturation inflates the *variance* too — queueing is bursty.

use super::{ClaimRun, Tsv};
use crate::{campaign, execute_stream, Scale};
use cdnsim::{QuerySpec, ServiceConfig};
use emulator::{Design, FoldSink};
use simcore::time::SimDuration;
use stats::QuantileAcc;

/// One load level: `clients_per_wave` clients hit the default FE
/// together every wave, repeated `waves` times.
fn level_design(clients_per_wave: usize, waves: u64) -> Design {
    Design::custom(move |sim| {
        sim.with(|w, net| {
            let fe = w.default_fe(0);
            let be = w.be_of_fe(fe);
            w.prewarm(net, fe, be, 4);
            let n = w.clients().len();
            for wave in 0..waves {
                for k in 0..clients_per_wave {
                    let client = (wave as usize * clients_per_wave + k) % n;
                    w.schedule_query(
                        net,
                        SimDuration::from_millis(3_000 + wave * 5_000 + k as u64 / 4),
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
    })
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    // Two worker slots and the shared-tenancy service times: the FE
    // saturates at realistic wave sizes (client RTT spread disperses
    // arrivals over ~250 ms, so per-wave arrival rate ≈ N/250 req/ms
    // against a ~0.1 req/ms capacity).
    let cfg = ServiceConfig::bing_like(seed).with_fe_workers(2);
    let waves = match scale {
        Scale::Quick => 12,
        Scale::Paper => 40,
    };

    let levels = [1usize, 8, 24, 56];
    let mut c = campaign(scale, seed);
    for &level in &levels {
        c.push(
            format!("load{level}"),
            cfg.clone(),
            level_design(level, waves),
        );
    }
    // Per run, retain only the derived FE-side constant per query:
    // Tstatic minus the vantage's RTT isolates the FE overhead.
    let report = execute_stream(&c, &|_| {
        FoldSink::new(QuantileAcc::exact(), |acc: &mut QuantileAcc, q| {
            acc.push((q.params.t_static_ms - q.params.rtt_ms).max(0.0))
        })
    });

    let mut tsv = Tsv::new(&[
        "clients_per_wave",
        "fe_constant_median_ms",
        "fe_constant_iqr_ms",
    ]);
    let mut medians = Vec::new();
    let mut iqrs = Vec::new();
    for &level in &levels {
        let overheads = report.output(&format!("load{level}"));
        let m = overheads.median().unwrap();
        let i = overheads.iqr().unwrap();
        eprintln!("load {level:>3} clients/wave: FE constant median {m:>7.2} ms, IQR {i:>6.2} ms");
        tsv.row(&[level as f64, m, i].map(|v| format!("{v:.3}")));
        medians.push(m);
        iqrs.push(i);
    }

    let mut run = ClaimRun::default();
    run.check(
        "light load is cheap: median < 40 ms",
        format!("{:.1} ms", medians[0]),
        medians[0] < 40.0,
    );
    run.check(
        "overhead grows with offered load",
        format!("{:.1} → {:.1} ms", medians[0], medians[levels.len() - 1]),
        medians[levels.len() - 1] > 2.0 * medians[0],
    );
    run.check(
        "growth is monotone across levels (within 20% tolerance)",
        "",
        medians.windows(2).all(|w| w[1] > w[0] * 0.8),
    );
    run.check(
        "saturation inflates variance",
        format!("IQR {:.1} → {:.1} ms", iqrs[0], iqrs[levels.len() - 1]),
        iqrs[levels.len() - 1] > iqrs[0],
    );
    run.with_tsv(tsv)
}
