//! Search-as-you-type campaigns (Sec. 6).
//!
//! The paper's preliminary look at interactive search found that "after
//! each letter a user has typed, a separate query (using a new TCP
//! connection) is sent to the FE server. The delivery of each query hence
//! still fits our basic model; although ... the search query processing
//! times at the BE data centers are generally reduced because the
//! subsequent queries are highly correlated with previous queries."
//!
//! Each keystroke past a minimum prefix fires a separate query over a
//! *new TCP connection*, after a human typing gap; all but the first are
//! correlated follow-ups that the BE processes faster. The paper's
//! claim that each still fits the basic model is verified here by
//! extracting a full timeline from every sub-query.

use crate::campaign::{Campaign, Design};
use crate::runner::ProcessedQuery;
use crate::scenarios::Scenario;
use crate::sink::CollectSink;
use cdnsim::{QuerySpec, ServiceConfig, ServiceWorld};
use simcore::dist::Dist;
use simcore::time::SimDuration;
use tcpsim::Sim;

/// Configuration of one instant-search campaign.
#[derive(Clone, Debug)]
pub struct InstantRun {
    /// Clients participating.
    pub clients: Vec<usize>,
    /// The final (fully typed) keyword each client searches.
    pub keyword: u64,
    /// Minimum prefix length before the first sub-query fires. A
    /// keyword no longer than this is one query.
    pub min_prefix: usize,
}

/// One processed instant session: the per-keystroke sub-queries of one
/// client in issue order.
#[derive(Clone, Debug)]
pub struct InstantSession {
    /// The client.
    pub client: usize,
    /// Sub-queries in keystroke order.
    pub subqueries: Vec<ProcessedQuery>,
}

impl InstantRun {
    /// Schedules the per-keystroke sub-queries into a world: one per
    /// prefix length from `min_prefix` to the whole keyword, each after
    /// a typing gap (~180 ms median) drawn from the world's own RNG, so
    /// the schedule is part of the shard and reproducible from its
    /// descriptor.
    pub fn schedule(&self, sim: &mut Sim<ServiceWorld>) {
        let typing_gap_ms = Dist::lognormal_median_spread(180.0, 1.5);
        sim.with(|w, net| {
            let chars = w.corpus().get(self.keyword).chars;
            let keystrokes = chars.saturating_sub(self.min_prefix) + 1;
            for &client in &self.clients {
                let mut at = SimDuration::from_millis(1);
                for i in 0..keystrokes {
                    if i > 0 {
                        at += SimDuration::from_millis_f64(typing_gap_ms.sample(net.rng()));
                    }
                    w.schedule_query(
                        net,
                        at,
                        QuerySpec {
                            client,
                            keyword: self.keyword,
                            fixed_fe: None,
                            instant_followup: i > 0,
                        },
                    );
                }
            }
        });
    }

    /// Groups a run's processed queries into per-client sessions in
    /// keystroke (issue-time) order.
    pub fn sessions(&self, processed: &[ProcessedQuery]) -> Vec<InstantSession> {
        self.clients
            .iter()
            .map(|&client| {
                let mut subqueries: Vec<ProcessedQuery> = processed
                    .iter()
                    .filter(|q| q.client == client)
                    .cloned()
                    .collect();
                subqueries.sort_by(|a, b| a.t_start_ms.partial_cmp(&b.t_start_ms).unwrap());
                InstantSession { client, subqueries }
            })
            .collect()
    }

    /// The campaign design scheduling this run.
    pub fn design(&self) -> Design {
        let this = self.clone();
        Design::custom(move |sim| this.schedule(sim))
    }

    /// Runs as a single-run campaign; returns one session per client.
    pub fn run(&self, scenario: &Scenario, cfg: ServiceConfig) -> Vec<InstantSession> {
        let mut campaign = Campaign::new(scenario.clone());
        campaign.push("instant", cfg, self.design());
        let report = campaign.execute_stream_with_threads(&|_| CollectSink::new(), 1);
        self.sessions(&report.output("instant").queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_keystroke_yields_a_model_conformant_query() {
        let s = Scenario::small(41);
        let run = InstantRun {
            clients: vec![0, 1],
            keyword: 2,
            min_prefix: 3,
        };
        let sessions = run.run(&s, ServiceConfig::google_like(41));
        assert_eq!(sessions.len(), 2);
        for sess in &sessions {
            let kw_len = s.corpus.get(2).chars;
            assert_eq!(sess.subqueries.len(), kw_len - 3 + 1);
            for q in &sess.subqueries {
                // "still fits our basic model": a full timeline with
                // consistent parameters was extracted.
                assert!(q.params.is_consistent(0.5));
                assert!(q.params.t_dynamic_ms > 0.0);
            }
            // Consecutive keystrokes are a human typing gap apart.
            for w in sess.subqueries.windows(2) {
                let gap = w[1].t_start_ms - w[0].t_start_ms;
                assert!(gap > 20.0 && gap < 2_000.0, "gap {gap}ms");
            }
        }
    }

    #[test]
    fn a_keyword_shorter_than_the_minimum_prefix_is_one_query() {
        let s = Scenario::small(41);
        let run = InstantRun {
            clients: vec![0, 1],
            keyword: 2,
            min_prefix: s.corpus.get(2).chars + 1,
        };
        for sess in run.run(&s, ServiceConfig::google_like(41)) {
            assert_eq!(sess.subqueries.len(), 1, "client {}", sess.client);
        }
    }

    #[test]
    fn followups_are_processed_faster_on_average() {
        let s = Scenario::small(42);
        let run = InstantRun {
            clients: (0..6).collect(),
            keyword: 4,
            min_prefix: 3,
        };
        let sessions = run.run(&s, ServiceConfig::bing_like(42));
        let mut first = Vec::new();
        let mut later = Vec::new();
        for sess in &sessions {
            for (i, q) in sess.subqueries.iter().enumerate() {
                if i == 0 {
                    first.push(q.proc_ms);
                } else {
                    later.push(q.proc_ms);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&later) < 0.8 * mean(&first),
            "followups {} vs first {}",
            mean(&later),
            mean(&first)
        );
    }
}
