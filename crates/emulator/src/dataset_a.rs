//! Dataset A: default-FE experiments.
//!
//! "In the first set, search queries are launched from all measurement
//! nodes to their default FE servers every 10 seconds." Used for the
//! RTT CDF (Fig. 6), the default-FE `Tstatic`/`Tdynamic` scatter
//! (Fig. 7) and the per-node overall-delay box plots (Fig. 8).

use crate::campaign::{Campaign, Design};
use crate::runner::ProcessedQuery;
use crate::scenarios::Scenario;
use crate::sink::CollectSink;
use capture::Classifier;
use cdnsim::{QuerySeries, ServiceConfig, ServiceWorld};
use simcore::time::SimDuration;
use tcpsim::Sim;

/// How each repeat picks its keyword.
#[derive(Clone, Copy, Debug)]
pub enum KeywordPolicy {
    /// The same keyword for every query (the paired-comparison default).
    Fixed(u64),
    /// Zipf-popularity sampling from the corpus.
    Zipf,
    /// Round-robin over the first `n` keywords.
    RoundRobin(u64),
}

/// Dataset A configuration.
#[derive(Clone, Debug)]
pub struct DatasetA {
    /// Queries per vantage point.
    pub repeats: u64,
    /// Inter-query spacing (paper: 10 s).
    pub spacing: SimDuration,
    /// Keyword selection.
    pub keywords: KeywordPolicy,
}

impl Default for DatasetA {
    fn default() -> Self {
        DatasetA {
            repeats: 20,
            spacing: SimDuration::from_secs(10),
            keywords: KeywordPolicy::Fixed(0),
        }
    }
}

impl DatasetA {
    /// Schedules the design into a simulator: every client issues
    /// `repeats` queries to its default FE, spaced `spacing`, with a
    /// small per-client stagger so the campaign start is not synchronised.
    /// Each client's queries are one query series. Zipf keywords are
    /// drawn here, client by client, so the network stream sees the same
    /// draws in the same order whatever the series do later.
    pub fn schedule(&self, sim: &mut Sim<ServiceWorld>) {
        let repeats = self.repeats;
        sim.with(|w, net| {
            for client in 0..w.clients().len() {
                // The series cycles this list; ids wrap at the corpus end.
                let keywords = match self.keywords {
                    KeywordPolicy::Fixed(k) => vec![k],
                    KeywordPolicy::Zipf => (0..repeats)
                        .map(|_| w.corpus().sample(net.rng()).id)
                        .collect(),
                    KeywordPolicy::RoundRobin(n) => (0..n.max(1).min(repeats)).collect(),
                };
                let series = QuerySeries {
                    client,
                    fixed_fe: None,
                    keywords,
                    first: SimDuration::from_millis(1 + (client as u64 * 37) % 2_000),
                    spacing: self.spacing,
                    count: repeats,
                };
                w.schedule_series(net, series);
            }
        });
    }

    /// Runs the design against one service as a single-run campaign and
    /// returns the processed queries.
    pub fn run(
        &self,
        scenario: &Scenario,
        cfg: ServiceConfig,
        classifier: &Classifier,
    ) -> Vec<ProcessedQuery> {
        let mut campaign = Campaign::new(scenario.clone());
        campaign
            .push("dataset-a", cfg, Design::DatasetA(self.clone()))
            .classifier = classifier.clone();
        let mut report = campaign.execute_stream_with_threads(&|_| CollectSink::new(), 1);
        report.runs.remove(0).output.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnsim::ServiceConfig;

    #[test]
    fn every_client_completes_every_repeat() {
        let s = Scenario::small(11);
        let d = DatasetA {
            repeats: 3,
            spacing: SimDuration::from_secs(2),
            keywords: KeywordPolicy::Fixed(5),
        };
        let out = d.run(&s, ServiceConfig::google_like(11), &Classifier::ByMarker);
        assert_eq!(out.len(), s.vantage_count() * 3);
        // All queries used the fixed keyword and the DNS-default FE.
        assert!(out.iter().all(|q| q.keyword == 5));
        assert!(out.iter().all(|q| q.fe.is_some()));
    }

    #[test]
    fn round_robin_policy_cycles() {
        let s = Scenario::small(12);
        let d = DatasetA {
            repeats: 4,
            spacing: SimDuration::from_secs(2),
            keywords: KeywordPolicy::RoundRobin(2),
        };
        let out = d.run(&s, ServiceConfig::google_like(12), &Classifier::ByMarker);
        let mut used: Vec<u64> = out.iter().map(|q| q.keyword).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used, vec![0, 1]);
    }

    #[test]
    fn zipf_policy_prefers_popular_keywords() {
        let s = Scenario::small(13);
        let d = DatasetA {
            repeats: 6,
            spacing: SimDuration::from_secs(1),
            keywords: KeywordPolicy::Zipf,
        };
        let out = d.run(&s, ServiceConfig::google_like(13), &Classifier::ByMarker);
        let low_rank = out.iter().filter(|q| q.keyword < 50).count();
        assert!(
            low_rank * 3 > out.len(),
            "zipf should concentrate on early ranks: {low_rank}/{}",
            out.len()
        );
    }
}
