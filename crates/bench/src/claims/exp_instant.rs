//! Sec. 6 — the interactive "search as you type" feature.
//!
//! Each keystroke issues a separate query over a new TCP connection.
//! The paper's claims: (i) every sub-query "still fits our basic model";
//! (ii) follow-up queries are processed faster at the BE because they
//! are correlated with the previous ones.
//!
//! Asserted:
//! * every sub-query yields a full, internally consistent timeline;
//! * the fetch-time bracket `Tdelta ≤ Tfetch ≤ Tdynamic` contains the
//!   true fetch time for every sub-query;
//! * follow-up sub-queries have materially smaller true `Tproc`.

use super::{ClaimRun, Tsv};
use crate::{campaign, execute_stream, Scale};
use cdnsim::ServiceConfig;
use emulator::instant::InstantRun;
use emulator::{FoldSink, ProcessedQuery};
use inference::FetchBounds;

pub fn run(scale: Scale, seed: u64) -> ClaimRun {
    let clients: Vec<usize> = match scale {
        Scale::Quick => (0..8).collect(),
        Scale::Paper => (0..40).collect(),
    };
    let instant = InstantRun {
        clients,
        keyword: 3,
        min_prefix: 3,
    };
    let mut c = campaign(scale, seed);
    c.push(
        "instant",
        ServiceConfig::google_like(seed),
        instant.design(),
    );
    // Session reconstruction pairs keystrokes within a client, so the
    // sink keeps the processed records (trace-free, O(keystrokes)).
    let report = execute_stream(&c, &|_| {
        FoldSink::new(Vec::new(), |v: &mut Vec<ProcessedQuery>, q| {
            v.push(q.clone())
        })
    });
    let sessions = instant.sessions(report.output("instant"));

    let mut tsv = Tsv::new(&[
        "client",
        "keystroke",
        "t_static_ms",
        "t_dynamic_ms",
        "t_delta_ms",
        "true_proc_ms",
        "followup",
    ]);

    let mut run = ClaimRun::default();
    let mut first_proc = Vec::new();
    let mut later_proc = Vec::new();
    let mut all_consistent = true;
    let mut all_bracketed = true;
    for sess in &sessions {
        for (i, q) in sess.subqueries.iter().enumerate() {
            tsv.row(&[
                sess.client.to_string(),
                i.to_string(),
                format!("{:.3}", q.params.t_static_ms),
                format!("{:.3}", q.params.t_dynamic_ms),
                format!("{:.3}", q.params.t_delta_ms),
                format!("{:.3}", q.proc_ms),
                (i > 0).to_string(),
            ]);
            all_consistent &= q.params.is_consistent(0.5);
            if let Some(truth) = q.true_fetch_ms {
                all_bracketed &= FetchBounds::from_params(&q.params).contains(truth, 12.0);
            }
            if i == 0 {
                first_proc.push(q.proc_ms);
            } else {
                later_proc.push(q.proc_ms);
            }
        }
    }
    run.check(
        "every session produced sub-queries",
        "",
        !sessions.is_empty() && sessions.iter().all(|s| s.subqueries.len() >= 2),
    );
    run.check(
        "every sub-query fits the basic model (consistent timeline)",
        "",
        all_consistent,
    );
    run.check(
        "fetch bracket contains true fetch time for every sub-query",
        "",
        all_bracketed,
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    eprintln!(
        "mean Tproc: first keystroke {:.1} ms, follow-ups {:.1} ms",
        mean(&first_proc),
        mean(&later_proc)
    );
    run.check(
        "follow-up queries processed faster (correlated-query discount)",
        "",
        mean(&later_proc) < 0.75 * mean(&first_proc),
    );
    run.with_tsv(tsv)
}
