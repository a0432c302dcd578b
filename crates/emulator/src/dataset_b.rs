//! Dataset B: fixed-FE experiments.
//!
//! "In the second set, we fix one FE server (of Bing or Google
//! respectively) at a time, and launch queries from all measurement
//! nodes to this server." This design decouples the client↔FE RTT from
//! the FE identity — the key to Fig. 5, where 720 repeated queries per
//! node against one FE expose how `Tstatic`/`Tdynamic`/`Tdelta` depend
//! on RTT alone.

use crate::campaign::{Campaign, Design};
use crate::runner::ProcessedQuery;
use crate::scenarios::Scenario;
use crate::sink::CollectSink;
use capture::Classifier;
use cdnsim::{QuerySpec, ServiceConfig, ServiceWorld};
use simcore::time::SimDuration;
use tcpsim::Sim;

/// Dataset B configuration.
#[derive(Clone, Debug)]
pub struct DatasetB {
    /// The fixed FE under test.
    pub fe: usize,
    /// Queries per vantage point (paper: 720).
    pub repeats: u64,
    /// Inter-query spacing.
    pub spacing: SimDuration,
    /// The (single) keyword used by all queries.
    pub keyword: u64,
    /// Persistent FE↔BE connections to pre-warm before measuring.
    pub prewarm_conns: usize,
}

impl DatasetB {
    /// A standard configuration against a given FE.
    pub fn against(fe: usize) -> DatasetB {
        DatasetB {
            fe,
            repeats: 24,
            spacing: SimDuration::from_secs(10),
            keyword: 0,
            prewarm_conns: 4,
        }
    }

    /// Sets the repeat count (the paper used 720).
    pub fn with_repeats(mut self, repeats: u64) -> DatasetB {
        self.repeats = repeats;
        self
    }

    /// Schedules the design: pre-warms the FE's BE connections, then has
    /// every client query the fixed FE `repeats` times.
    pub fn schedule(&self, sim: &mut Sim<ServiceWorld>) {
        let fe = self.fe;
        let repeats = self.repeats;
        let spacing = self.spacing;
        let keyword = self.keyword;
        let prewarm = self.prewarm_conns;
        sim.with(|w, net| {
            let be = w.be_of_fe(fe);
            if prewarm > 0 {
                w.prewarm(net, fe, be, prewarm);
            }
            let n_clients = w.clients().len();
            for client in 0..n_clients {
                let stagger = SimDuration::from_millis(3_000 + (client as u64 * 41) % 2_000);
                for r in 0..repeats {
                    w.schedule_query(
                        net,
                        stagger + spacing * r,
                        QuerySpec {
                            client,
                            keyword,
                            fixed_fe: Some(fe),
                            instant_followup: false,
                        },
                    );
                }
            }
        });
    }

    /// Runs the design as a single-run campaign and returns the
    /// processed queries.
    pub fn run(
        &self,
        scenario: &Scenario,
        cfg: ServiceConfig,
        classifier: &Classifier,
    ) -> Vec<ProcessedQuery> {
        let mut campaign = Campaign::new(scenario.clone());
        campaign
            .push("dataset-b", cfg, Design::DatasetB(self.clone()))
            .classifier = classifier.clone();
        let mut report = campaign.execute_stream_with_threads(&|_| CollectSink::new(), 1);
        report.runs.remove(0).output.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queries_hit_the_fixed_fe() {
        let s = Scenario::small(21);
        let mut sim = s.google_sim();
        let fe = sim.with(|w, _| w.default_fe(3));
        drop(sim);
        let d = DatasetB {
            fe,
            repeats: 2,
            spacing: SimDuration::from_secs(3),
            keyword: 7,
            prewarm_conns: 2,
        };
        let out = d.run(&s, ServiceConfig::google_like(21), &Classifier::ByMarker);
        assert_eq!(out.len(), s.vantage_count() * 2);
        assert!(out.iter().all(|q| q.fe == Some(fe)));
        assert!(out.iter().all(|q| q.keyword == 7));
    }

    #[test]
    fn rtt_spread_across_vantages_is_wide() {
        // Fixing one FE makes distant vantages see large RTT — the
        // variation Fig. 5's x-axis needs.
        let s = Scenario::small(22);
        let d = DatasetB::against(0).with_repeats(1);
        let out = d.run(&s, ServiceConfig::google_like(22), &Classifier::ByMarker);
        let min = out.iter().map(|q| q.params.rtt_ms).fold(f64::MAX, f64::min);
        let max = out.iter().map(|q| q.params.rtt_ms).fold(0.0, f64::max);
        assert!(max > min + 50.0, "rtt spread [{min}, {max}] too narrow");
    }
}
