//! Extension — scoring the paper's measurement method itself.
//!
//! The paper's static/dynamic split comes from payload content analysis;
//! a cheaper online alternative would be the PSH-flag heuristic. Because
//! the simulator carries ground truth, both can be *scored* instead of
//! trusted. The interesting failure is structural: beyond the RTT
//! threshold the portions coalesce into one packet, which content
//! analysis handles (it sees bytes) but the PSH heuristic cannot (it
//! sees only packet boundaries).
//!
//! Asserted:
//! * content analysis reproduces the oracle boundary on essentially
//!   every session, at small and large RTT alike;
//! * the PSH heuristic is near-perfect *below* the threshold but
//!   degrades on merged sessions;
//! * content analysis' `Tdelta` error stays ≈ 0, so every downstream
//!   inference result in this repository stands on a validated method.

use super::{ClaimRun, Tsv};
use crate::{campaign, execute_stream, Scale};
use capture::validate::score_classifier;
use capture::{find_static_content_ids, Classifier};
use cdnsim::{QuerySpec, ServiceConfig, ServiceWorld};
use emulator::{CollectSink, Design};
use simcore::time::SimDuration;
use tcpsim::NodeId;

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let repeats: u64 = match scale {
        Scale::Quick => 4,
        Scale::Paper => 12,
    };

    // Distinct queries from every vantage to one *fixed* FE of the
    // google-like service (threshold ≈ 72 ms): the vantage RTT spread
    // then covers both regimes, with plenty of merged sessions.
    let mut c = campaign(scale, seed);
    c.push(
        "classifiers",
        ServiceConfig::google_like(seed),
        Design::custom(move |sim| {
            sim.with(|w, net| {
                let fe = w.default_fe(0);
                let be = w.be_of_fe(fe);
                w.prewarm(net, fe, be, 4);
                let n = w.clients().len();
                let corpus_len = w.corpus().len() as u64;
                for c in 0..n {
                    for r in 0..repeats {
                        w.schedule_query(
                            net,
                            SimDuration::from_millis(3_000 + r * 9_000 + c as u64 * 83),
                            QuerySpec {
                                client: c,
                                keyword: (c as u64 * repeats + r + 1) % corpus_len,
                                fixed_fe: Some(fe),
                                instant_followup: false,
                            },
                        );
                    }
                }
            });
        }),
    );
    // Classifier scoring needs the packet traces themselves: opt into
    // raw retention (traces are moved into the sink, not cloned).
    let report = execute_stream(&c, &|_| CollectSink::with_raw(true));
    let raw = &report.output("classifiers").raw;

    // Learn the static ids blind, borrowing the captures in place.
    let clients: Vec<NodeId> = raw
        .iter()
        .map(|c| ServiceWorld::client_node(c.client))
        .collect();
    let static_ids = find_static_content_ids(raw.iter().map(|c| &c.trace), |i| clients[i], 3);
    let by_content = Classifier::ByContent(static_ids.clone());

    // Partition sessions by regime using the oracle Tdelta.
    let mut merged_idx = Vec::new();
    let mut separated_idx = Vec::new();
    for (i, cq) in raw.iter().enumerate() {
        if let Ok(tl) = capture::Timeline::extract(&cq.trace, clients[i], &Classifier::ByMarker) {
            if tl.t_delta_ms() < 1.0 {
                merged_idx.push(i);
            } else {
                separated_idx.push(i);
            }
        }
    }
    let batch = |idx: &[usize]| -> Vec<(&tcpsim::Capture, NodeId)> {
        idx.iter().map(|&i| (&raw[i].trace, clients[i])).collect()
    };
    let all_idx: Vec<usize> = (0..raw.len()).collect();

    let mut tsv = Tsv::new(&[
        "classifier",
        "regime",
        "sessions",
        "boundary_accuracy",
        "mean_tdelta_err_ms",
    ]);
    let mut results = Vec::new();
    for (cname, classifier) in [
        ("by-content", by_content.clone()),
        ("by-push", Classifier::ByPush),
    ] {
        for (rname, idx) in [
            ("all", &all_idx),
            ("separated", &separated_idx),
            ("merged", &merged_idx),
        ] {
            let score = score_classifier(&batch(idx), &classifier);
            tsv.row(&[
                cname.to_string(),
                rname.to_string(),
                score.comparable.to_string(),
                format!("{:.4}", score.boundary_accuracy()),
                format!("{:.3}", score.mean_tdelta_err_ms),
            ]);
            eprintln!(
                "{cname:<11} {rname:<10} n={:<4} boundary acc {:.3}, Tdelta err {:.2} ms",
                score.comparable,
                score.boundary_accuracy(),
                score.mean_tdelta_err_ms
            );
            results.push((cname, rname, score));
        }
    }

    let get = |c: &str, r: &str| {
        results
            .iter()
            .find(|(cn, rn, _)| *cn == c && *rn == r)
            .map(|(_, _, s)| s.clone())
            .unwrap()
    };
    let mut run = ClaimRun::default();
    run.check(
        "a meaningful merged population exists",
        "",
        merged_idx.len() >= 10,
    );
    run.check(
        "a meaningful separated population exists",
        "",
        separated_idx.len() >= 10,
    );
    run.check(
        "content analysis: ≥ 99% boundary accuracy overall",
        "",
        get("by-content", "all").boundary_accuracy() >= 0.99,
    );
    run.check(
        "content analysis: Tdelta error ≈ 0",
        "",
        get("by-content", "all").mean_tdelta_err_ms < 0.5,
    );
    run.check(
        "PSH heuristic: fine on separated sessions (≥ 90%)",
        "",
        get("by-push", "separated").boundary_accuracy() >= 0.90,
    );
    run.check(
        "PSH heuristic: degrades on merged sessions",
        "",
        get("by-push", "merged").boundary_accuracy()
            < get("by-push", "separated").boundary_accuracy(),
    );
    run.with_tsv(tsv)
}
