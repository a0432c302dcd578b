//! Fig. 4 — inbound/outbound packet events triggered by a single search
//! query, at five clients of increasing RTT to one fixed FE.
//!
//! The paper's y-axis values are the five clients' RTTs
//! (10.656, 30.003, 86.647, 160.38, 243.25 ms); each row is a timeline
//! of packet events since the SYN. At small RTT three temporal clusters
//! are visible (handshake, static, dynamic); as RTT grows the gap
//! between the static and dynamic clusters shrinks and the two merge.
//!
//! Shapes asserted:
//! * the smallest-RTT client shows ≥ 2 separated payload clusters;
//! * the inter-cluster gap shrinks monotonically (within tolerance) as
//!   RTT grows;
//! * the largest-RTT client's payload events form a single merged
//!   cluster.
//!
//! The design is fixed-size: `FECDN_SCALE` is validated and then ignored.

use super::{ClaimRun, Tsv};
use crate::{execute_stream, Scale};
use capture::cluster_view::TimelineView;
use capture::{Classifier, Timeline};
use cdnsim::{QuerySpec, ServiceConfig, ServiceWorld};
use emulator::{Campaign, CollectSink, Design, Scenario};
use simcore::time::SimDuration;

/// The paper's five RTT rows (ms).
const PAPER_RTTS: [f64; 5] = [10.656, 30.003, 86.647, 160.38, 243.25];

/// The checks that read the five client rows, in order.
const ROW_CHECKS: [&str; 5] = [
    "smallest-RTT row: dynamic burst forms its own cluster",
    "largest-RTT row: static and dynamic merged into one cluster",
    "Tdelta shrinks with RTT",
    "largest-RTT row Tdelta ≈ 0",
    "RTT rows span the paper's range (≈10 to ≈240 ms)",
];

pub fn run(_: Scale, seed: u64) -> ClaimRun {
    let sc = Scenario::with_size(seed, 230, 1_000);

    // Pick one FE and five clients whose RTTs best match the paper's
    // rows, from a throwaway planning world (pure geometry: identical
    // in every world built from this scenario's configs).
    let mut planning = sc.build_sim(ServiceConfig::bing_like(seed));
    let (fe, clients) = planning.with(|w, _| {
        let fe = w.default_fe(0);
        let mut chosen = Vec::new();
        for target in PAPER_RTTS {
            let mut best = (0usize, f64::MAX);
            for c in 0..w.clients().len() {
                if chosen.contains(&c) {
                    continue;
                }
                let rtt = w.client_fe_rtt_ms(c, fe);
                let err = (rtt - target).abs();
                if err < best.1 {
                    best = (c, err);
                }
            }
            chosen.push(best.0);
        }
        (fe, chosen)
    });
    drop(planning);
    // The back-end processing time is itself noisy (that is the point of
    // the Bing-like model); a figure built from one query per row would
    // inherit that noise. Run each row several times and display the
    // median-`Tdelta` run — the paper similarly shows representative
    // timelines.
    const TRIES: u64 = 7;
    let mut campaign = Campaign::new(sc);
    let sched_clients = clients.clone();
    campaign.push(
        "fig4",
        ServiceConfig::bing_like(seed),
        Design::custom(move |sim| {
            sim.with(|w, net| {
                let be = w.be_of_fe(fe);
                w.prewarm(net, fe, be, 5);
                for (i, &client) in sched_clients.iter().enumerate() {
                    for t in 0..TRIES {
                        w.schedule_query(
                            net,
                            SimDuration::from_millis(3_000 + i as u64 * 5_000 + t * 30_000),
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
    // This figure genuinely needs packet traces: opt into raw retention
    // explicitly (the trace is moved into the sink, never cloned).
    let report = execute_stream(&campaign, &|_| CollectSink::with_raw(true));

    let mut runs: Vec<(usize, TimelineView, Timeline)> = Vec::new();
    for cq in &report.output("fig4").raw {
        let node = ServiceWorld::client_node(cq.client);
        let view = TimelineView::build(&cq.trace, node);
        let tl = Timeline::extract(&cq.trace, node, &Classifier::ByMarker);
        if let (Ok(v), Ok(t)) = (view, tl) {
            runs.push((cq.client, v, t));
        }
    }
    // Per client, keep the run with the median Tdelta.
    let mut views: Vec<(usize, TimelineView, Timeline)> = clients
        .iter()
        .filter_map(|&client| {
            let mut mine: Vec<&(usize, TimelineView, Timeline)> =
                runs.iter().filter(|(c, _, _)| *c == client).collect();
            if mine.is_empty() {
                return None;
            }
            mine.sort_by(|a, b| a.2.t_delta_ms().partial_cmp(&b.2.t_delta_ms()).unwrap());
            Some(mine[mine.len() / 2].clone())
        })
        .collect();
    views.sort_by(|a, b| a.1.rtt_ms.partial_cmp(&b.1.rtt_ms).unwrap());

    // ---- TSV: one row per packet event ----
    let mut tsv = Tsv::new(&["client", "rtt_ms", "direction", "t_ms_since_syn"]);
    for (client, v, _) in &views {
        for &t in &v.tx_ms {
            tsv.row(&[
                client.to_string(),
                format!("{:.3}", v.rtt_ms),
                "out".to_string(),
                format!("{t:.3}"),
            ]);
        }
        for &t in &v.rx_ms {
            tsv.row(&[
                client.to_string(),
                format!("{:.3}", v.rtt_ms),
                "in".to_string(),
                format!("{t:.3}"),
            ]);
        }
    }

    // ---- shape checks ----
    // The observable of Fig. 4 is the gap between the end of the static
    // cluster and the beginning of the dynamic cluster (`Tdelta`), and
    // whether the dynamic burst still forms its own temporal cluster.
    let mut run = ClaimRun::default();
    eprintln!("client rows (RTT → clusters, Tdelta):");
    for (client, v, tl) in &views {
        eprintln!(
            "  client {client}: rtt {:.1} → {} payload clusters, Tdelta {:.1} ms",
            v.rtt_ms,
            v.payload_cluster_count(),
            tl.t_delta_ms(),
        );
    }
    run.check("five client rows produced", "", views.len() == 5);
    if views.len() == 5 {
        // Cluster membership of the boundary: at the smallest RTT the
        // first dynamic packet must *start* a cluster of its own; at the
        // largest RTT it must sit in the same cluster as the last static
        // packet (the bursts merged, "delivered back-to-back").
        let boundary_merged = |v: &TimelineView, tl: &Timeline| -> (bool, bool) {
            let t4 = tl.t4.saturating_since(tl.tb).as_millis_f64();
            let t5 = tl.t5.saturating_since(tl.tb).as_millis_f64();
            let eps = 0.05;
            let starts_own = v
                .rx_clusters
                .iter()
                .any(|c| (c.t_first - t5).abs() < eps && c.t_first > t4 + eps);
            let same_cluster = v.rx_clusters.iter().any(|c| {
                c.t_first <= t4 + eps
                    && t4 <= c.t_last + eps
                    && c.t_first <= t5 + eps
                    && t5 <= c.t_last + eps
            });
            (starts_own, same_cluster)
        };
        let (own_small, _) = boundary_merged(&views[0].1, &views[0].2);
        let (_, merged_large) = boundary_merged(&views[4].1, &views[4].2);
        let [own, merged, shrinks, zero, span] = ROW_CHECKS;
        run.check(own, "", own_small);
        run.check(merged, "", merged_large);
        let tdeltas: Vec<f64> = views.iter().map(|(_, _, tl)| tl.t_delta_ms()).collect();
        run.check(
            shrinks,
            format!("{tdeltas:?}"),
            tdeltas.windows(2).all(|w| w[1] <= w[0] + 20.0) && tdeltas[0] > tdeltas[4] + 50.0,
        );
        run.check(zero, format!("got {:.1}", tdeltas[4]), tdeltas[4] < 5.0);
        run.check(
            span,
            "",
            views[0].1.rtt_ms < 25.0 && views[4].1.rtt_ms > 180.0,
        );
    } else {
        let missing = format!("{} client rows, 5 needed", views.len());
        for id in ROW_CHECKS {
            run.not_evaluated(id, &missing);
        }
    }
    run.with_tsv(tsv)
}
