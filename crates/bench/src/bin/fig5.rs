//! Fig. 5 — distribution of `Tstatic`, `Tdynamic` and `Tdelta` against
//! the client↔FE RTT, for one fixed Bing-like FE and one fixed
//! Google-like FE (Dataset B: every vantage queries the fixed FE
//! repeatedly; each point is a per-vantage median).
//!
//! Paper shapes asserted:
//! * `Tstatic` varies far less across vantages than `Tdynamic` does at
//!   matched RTT (its spread around the RTT trend is small);
//! * `Tdynamic` is roughly constant at small RTT, then grows ~linearly;
//! * `Tdelta` decreases ~linearly (slope ≈ −1) and hits 0 beyond a
//!   threshold;
//! * the Google-like threshold (paper: 50–100 ms) sits below the
//!   Bing-like one (paper: 100–200 ms).

use bench::{campaign, check, dataset_b_repeats, execute_stream, finish, settings};
use cdnsim::ServiceConfig;
use emulator::dataset_b::DatasetB;
use emulator::output::Tsv;
use emulator::{Design, FoldSink};
use inference::{estimate_rtt_threshold, GroupMedians, GroupMediansAcc};

/// Dataset B against the FE nearest to the first vantage's default — an
/// arbitrary but deterministic pick, like the paper's single named
/// server IPs. The pick happens inside the shard world, so the
/// descriptor stays self-contained.
fn fixed_fe_design(repeats: u64) -> Design {
    Design::custom(move |sim| {
        let fe = sim.with(|w, _| w.default_fe(0));
        DatasetB::against(fe).with_repeats(repeats).schedule(sim);
    })
}

/// Per-run streaming state: the grouped-median reducer plus the two
/// scalars the stderr summary reports. Memory is O(vantages), not
/// O(samples).
struct Fig5State {
    acc: GroupMediansAcc,
    first_fe: Option<usize>,
    n: usize,
}

fn analyse(name: &str, s: &Fig5State) -> (Vec<GroupMedians>, inference::threshold::RttThreshold) {
    let groups = s.acc.finish();
    let points: Vec<(f64, f64)> = groups.iter().map(|g| (g.rtt_ms, g.t_delta_ms)).collect();
    let thr = estimate_rtt_threshold(&points, 3.0, 25.0);
    let fe = s.first_fe.unwrap_or(0);
    eprintln!(
        "{name}: fixed FE {fe}, {} vantages, {} samples",
        groups.len(),
        s.n
    );
    (groups, thr)
}

fn spread_around_trend(points: &[(f64, f64)]) -> f64 {
    // Residual std around an OLS trend — used to compare Tstatic's
    // tightness vs Tdynamic's.
    let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    match stats::regress::ols(&xs, &ys) {
        Some(f) => {
            let resid: Vec<f64> = points.iter().map(|&(x, y)| y - f.predict(x)).collect();
            stats::quantile::sample_std(&resid).unwrap_or(0.0)
        }
        None => 0.0,
    }
}

fn main() {
    let (scale, seed) = settings();
    let repeats = dataset_b_repeats(scale);

    let mut c = campaign(scale, seed);
    c.push(
        "bing-like",
        ServiceConfig::bing_like(seed),
        fixed_fe_design(repeats),
    );
    c.push(
        "google-like",
        ServiceConfig::google_like(seed),
        fixed_fe_design(repeats),
    );
    let report = execute_stream(&c, &|_| {
        FoldSink::new(
            Fig5State {
                acc: GroupMediansAcc::exact(),
                first_fe: None,
                n: 0,
            },
            |s: &mut Fig5State, q| {
                if s.n == 0 {
                    s.first_fe = q.fe;
                }
                s.n += 1;
                s.acc.push(q.client as u64, &q.params);
            },
        )
    });

    let (bing, bing_thr) = analyse("bing-like", report.output("bing-like"));
    let (google, google_thr) = analyse("google-like", report.output("google-like"));

    // ---- TSV: one row per (service, vantage) ----
    let stdout = std::io::stdout();
    let mut tsv = Tsv::new(
        stdout.lock(),
        &[
            "service",
            "vantage",
            "rtt_ms",
            "t_static_ms",
            "t_dynamic_ms",
            "t_delta_ms",
        ],
    )
    .unwrap();
    for (name, groups) in [("bing-like", &bing), ("google-like", &google)] {
        for g in groups.iter() {
            tsv.row(&[
                name.to_string(),
                g.group.to_string(),
                format!("{:.3}", g.rtt_ms),
                format!("{:.3}", g.t_static_ms),
                format!("{:.3}", g.t_dynamic_ms),
                format!("{:.3}", g.t_delta_ms),
            ])
            .unwrap();
        }
    }

    // ---- shape checks ----
    let mut ok = true;
    for (name, groups, thr) in [
        ("bing-like", &bing, &bing_thr),
        ("google-like", &google, &google_thr),
    ] {
        // "Large RTT" means beyond the service's own Tdelta→0 threshold
        // (the regimes are threshold-relative, not absolute — that is
        // the model's whole point).
        let thr_est = thr
            .linear_intercept_ms
            .or(thr.binned_first_zero_ms)
            .unwrap_or(150.0);
        let small: Vec<&GroupMedians> = groups.iter().filter(|g| g.rtt_ms < 30.0).collect();
        let large: Vec<&GroupMedians> = groups
            .iter()
            .filter(|g| g.rtt_ms > thr_est + 30.0)
            .collect();
        if small.len() >= 3 && large.len() >= 3 {
            let med = |v: &[f64]| stats::quantile::median(v).unwrap();
            let td_small: Vec<f64> = small.iter().map(|g| g.t_dynamic_ms).collect();
            let td_large: Vec<f64> = large.iter().map(|g| g.t_dynamic_ms).collect();
            let dl_small: Vec<f64> = small.iter().map(|g| g.t_delta_ms).collect();
            let dl_large: Vec<f64> = large.iter().map(|g| g.t_delta_ms).collect();
            ok &= check(
                &format!("{name}: Tdynamic grows from small to large RTT"),
                med(&td_large) > med(&td_small) + 50.0,
            );
            ok &= check(
                &format!("{name}: Tdelta positive at small RTT"),
                med(&dl_small) > 10.0,
            );
            ok &= check(
                &format!("{name}: Tdelta ~0 at large RTT"),
                med(&dl_large) < 10.0,
            );
        }
        // Tdelta slope ≈ −1 in the positive regime.
        if let Some(slope) = thr.linear_slope {
            ok &= check(
                &format!("{name}: Tdelta slope ≈ -1 (got {slope:.2})"),
                (-1.35..=-0.65).contains(&slope),
            );
        }
        // Tstatic hugs its RTT trend much tighter than Tdynamic.
        let ts_pts: Vec<(f64, f64)> = groups.iter().map(|g| (g.rtt_ms, g.t_static_ms)).collect();
        let td_pts: Vec<(f64, f64)> = groups.iter().map(|g| (g.rtt_ms, g.t_dynamic_ms)).collect();
        let s_ts = spread_around_trend(&ts_pts);
        let s_td = spread_around_trend(&td_pts);
        ok &= check(
            &format!("{name}: Tstatic spread {s_ts:.1} < Tdynamic spread {s_td:.1}"),
            s_ts <= s_td,
        );
    }
    let gt = google_thr
        .linear_intercept_ms
        .or(google_thr.binned_first_zero_ms);
    let bt = bing_thr
        .linear_intercept_ms
        .or(bing_thr.binned_first_zero_ms);
    if let (Some(g), Some(b)) = (gt, bt) {
        eprintln!("threshold google-like ≈ {g:.0} ms, bing-like ≈ {b:.0} ms");
        ok &= check("google-like threshold below bing-like threshold", g < b);
        ok &= check(
            &format!("google-like threshold {g:.0} in the paper band (30-120 ms)"),
            (30.0..=120.0).contains(&g),
        );
        ok &= check(
            &format!("bing-like threshold {b:.0} in the paper band (80-260 ms)"),
            (80.0..=260.0).contains(&b),
        );
    } else {
        ok = check("both thresholds estimable", false) && ok;
    }
    finish(ok);
}
