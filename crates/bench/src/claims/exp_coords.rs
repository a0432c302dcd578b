//! Extension — the reviewers' network-coordinates idea, end to end.
//!
//! Review #3 of the paper: "use a virtual coordinates system to estimate
//! the RTT between FE and BE servers and then take this and Tstatic+RTT
//! out from Tdynamic in order to say something about Tproc at the
//! datacenter". This experiment implements and *evaluates* that proposal:
//!
//! 1. clients measure handshake RTTs to many FEs (a Dataset-B-style
//!    sweep) and ping the data-center prefixes directly;
//! 2. a Vivaldi embedding is trained on those client-observed RTTs;
//! 3. the embedding predicts the never-measured FE↔BE RTTs;
//! 4. `Tproc ≈ Tdynamic − C·RTTbe_est − overhead` per FE.
//!
//! Asserted:
//! * the embedding reconstructs the *measured* RTT space well (median
//!   relative error < 25 %);
//! * predicted FE↔BE RTTs correlate strongly with the ground truth;
//! * the heuristic lands closer to the true `Tproc` than using raw
//!   `Tdynamic` would;
//! * the documented *bias* of the method shows up: coordinates embed the
//!   public/campus RTT space, so they overestimate RTTs on Google's
//!   private WAN — exactly why the authors' regression approach (which
//!   never needs absolute RTTbe) is the more robust design.

use super::{ClaimRun, Tsv};
use crate::{campaign, execute_stream, scenario, Scale};
use cdnsim::{QuerySpec, ServiceConfig};
use emulator::{Design, FoldSink};
use inference::{tproc_via_coords, RttSample, Vivaldi};
use simcore::time::SimDuration;

/// The five per-query scalars this experiment consumes. Vivaldi training
/// needs every sample (in completion order), so the sink retains one
/// compact record per query instead of the whole processed record.
#[derive(Clone, Copy)]
struct CoordRec {
    client: usize,
    fe: usize,
    rtt_ms: f64,
    t_dynamic_ms: f64,
    proc_ms: f64,
}

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let sc = scenario(scale, seed);
    let cfg = ServiceConfig::google_like(seed);

    // Planning world for the geometry lookups (counts, ping RTTs, ground
    // truth): pure geometry, identical in every world of this scenario.
    let mut sim = sc.build_sim(cfg.clone());
    let (n_clients, n_fes, n_bes) =
        sim.with(|w, _| (w.clients().len(), w.fe_count(), cfg.be_sites.len()));
    // Node universe: clients, then FEs, then BEs.
    let fe_node = |fe: usize| n_clients + fe;
    let be_node = |be: usize| n_clients + n_fes + be;

    // ---- step 1a: client↔FE handshake RTTs from real queries ----
    let probe_clients: Vec<usize> = (0..n_clients).step_by(2).collect();
    let mut c = campaign(scale, seed);
    let sched_clients = probe_clients.clone();
    c.push(
        "coords",
        cfg.clone(),
        Design::custom(move |sim| {
            sim.with(|w, net| {
                for (i, &client) in sched_clients.iter().enumerate() {
                    for fe in 0..n_fes {
                        w.schedule_query(
                            net,
                            SimDuration::from_millis(1 + (i * n_fes + fe) as u64 * 150),
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
        }),
    );
    let report = execute_stream(&c, &|_| {
        FoldSink::new(Vec::new(), |v: &mut Vec<CoordRec>, q| {
            v.push(CoordRec {
                client: q.client,
                fe: q.fe.expect("fixed-FE design"),
                rtt_ms: q.params.rtt_ms,
                t_dynamic_ms: q.params.t_dynamic_ms,
                proc_ms: q.proc_ms,
            })
        })
    });
    let out = report.output("coords");
    let mut samples: Vec<RttSample> = out
        .iter()
        .map(|q| RttSample {
            a: q.client,
            b: fe_node(q.fe),
            rtt_ms: q.rtt_ms.max(0.1),
        })
        .collect();
    // ---- step 1b: client↔BE pings ----
    sim.with(|w, _| {
        for &client in &probe_clients {
            for be in 0..n_bes {
                samples.push(RttSample {
                    a: client,
                    b: be_node(be),
                    rtt_ms: w.client_be_rtt_ms(client, be).max(0.1),
                });
            }
        }
    });

    // ---- step 2: embed ----
    let n_nodes = n_clients + n_fes + n_bes;
    let mut viv = Vivaldi::new(n_nodes, seed);
    viv.train(&samples, 40, seed);
    let fit_err = viv.median_rel_error(&samples);

    // ---- step 3: predict FE↔BE RTTs, compare to ground truth ----
    let mut est = Vec::new();
    let mut truth = Vec::new();
    let mut tsv_rows = Vec::new();
    sim.with(|w, _| {
        for fe in 0..n_fes {
            let be = w.be_of_fe(fe);
            let e = viv.predict(fe_node(fe), be_node(be));
            let t = w.fe_be_rtt_ms(fe, be);
            est.push(e);
            truth.push(t);
            tsv_rows.push((fe, be, e, t));
        }
    });
    let corr = stats::pearson(&est, &truth).unwrap_or(0.0);

    // ---- step 4: the Tproc heuristic on small-RTT vantages ----
    let mut tproc_errs = Vec::new();
    let mut naive_errs = Vec::new();
    sim.with(|w, _| {
        for fe in 0..n_fes {
            let td: Vec<f64> = out
                .iter()
                .filter(|q| q.fe == fe && q.rtt_ms < 30.0)
                .map(|q| q.t_dynamic_ms)
                .collect();
            let truths: Vec<f64> = out
                .iter()
                .filter(|q| q.fe == fe)
                .map(|q| q.proc_ms)
                .collect();
            if td.is_empty() || truths.is_empty() {
                continue;
            }
            let td_med = stats::quantile::median(&td).unwrap();
            let true_proc = stats::quantile::mean(&truths).unwrap();
            let be = w.be_of_fe(fe);
            // C rounds for the google-like 8 KB BE window on a ~28 KB
            // response ≈ 4; overhead allowance 6 ms.
            let e = tproc_via_coords(td_med, viv.predict(fe_node(fe), be_node(be)), 4.0, 6.0);
            tproc_errs.push((e - true_proc).abs());
            naive_errs.push((td_med - true_proc).abs());
        }
    });

    // ---- output ----
    let mut tsv = Tsv::new(&["fe", "be", "rtt_be_estimated_ms", "rtt_be_true_ms"]);
    for (fe, be, e, t) in &tsv_rows {
        tsv.row(&[
            fe.to_string(),
            be.to_string(),
            format!("{e:.3}"),
            format!("{t:.3}"),
        ]);
    }

    let med = |v: &[f64]| stats::quantile::median(v).unwrap();
    eprintln!("embedding fit: median relative error {fit_err:.3}");
    eprintln!("FE↔BE estimate vs truth: r = {corr:.3}");
    eprintln!(
        "Tproc error: heuristic {:.0} ms vs naive-Tdynamic {:.0} ms",
        med(&tproc_errs),
        med(&naive_errs)
    );
    let over = est.iter().zip(&truth).filter(|(e, t)| *e > *t).count();
    eprintln!(
        "private-WAN bias: {over}/{} FE↔BE estimates above the true RTT",
        est.len()
    );
    let mut run = ClaimRun::default();
    run.check(
        "embedding reconstructs measured RTTs",
        format!("err {fit_err:.2}"),
        fit_err < 0.25,
    );
    run.check(
        "FE↔BE correlation strong",
        format!("r {corr:.2}"),
        corr > 0.7,
    );
    run.check(
        "coordinate heuristic beats naive Tdynamic as a Tproc estimate",
        "",
        med(&tproc_errs) < med(&naive_errs),
    );
    run.check(
        "the documented bias appears: estimates skew above the private-WAN truth",
        "",
        over * 2 >= est.len(),
    );
    run.with_tsv(tsv)
}
