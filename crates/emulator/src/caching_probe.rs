//! The Sec. 3 caching probes.
//!
//! "In the first set, all measurement nodes submit the same search query
//! sequentially to a fixed FE server. In the second set, each node
//! submits a different search query to a fixed FE server. ... A total of
//! 40,000 keywords are used." Comparison of the resulting `Tdynamic`
//! distributions answers whether FEs cache (dynamically generated)
//! search results.

use crate::campaign::{Campaign, Design, StreamReport};
use crate::runner::ProcessedQuery;
use crate::scenarios::Scenario;
use crate::sink::QuerySink;
use cdnsim::{QuerySpec, ServiceConfig};
use inference::caching::{caching_verdict, CachingProbe};
use simcore::time::SimDuration;

/// Configuration of one caching probe.
#[derive(Clone, Debug)]
pub struct CachingProbeRun {
    /// The fixed FE under test.
    pub fe: usize,
    /// Queries per design (per node × repeats).
    pub repeats_per_client: u64,
    /// Inter-query spacing.
    pub spacing: SimDuration,
    /// Only samples from vantages with RTT below this bound enter the
    /// comparison. Beyond the paper's RTT threshold, `Tdynamic` is pinned
    /// by window pacing whether or not a fetch happened, so far vantages
    /// carry no caching signal and only dilute the test.
    pub max_rtt_ms: f64,
}

/// The probe's outcome: both sample sets and the verdict.
#[derive(Clone, Debug)]
pub struct CachingOutcome {
    /// `Tdynamic` samples from the same-query design, ms.
    pub same_query_ms: Vec<f64>,
    /// `Tdynamic` samples from the distinct-query design, ms.
    pub distinct_query_ms: Vec<f64>,
    /// The statistical comparison and verdict.
    pub probe: CachingProbe,
}

impl CachingProbeRun {
    /// A standard probe against a given FE.
    pub fn against(fe: usize) -> CachingProbeRun {
        CachingProbeRun {
            fe,
            repeats_per_client: 6,
            spacing: SimDuration::from_secs(5),
            max_rtt_ms: 80.0,
        }
    }

    /// Runs both designs against `cfg` as a two-run campaign and
    /// compares.
    ///
    /// Design 1 (same query): all clients repeatedly submit one anchor
    /// keyword. Design 2 (distinct queries): every (client, repeat)
    /// submits a distinct keyword *of the anchor's class* — controlling
    /// for the keyword-class effect on `Tproc` so any distributional
    /// difference is attributable to caching alone.
    pub fn run(&self, scenario: &Scenario, cfg: ServiceConfig) -> Option<CachingOutcome> {
        let mut campaign = Campaign::new(scenario.clone());
        self.add_to(&mut campaign, "caching", cfg);
        self.outcome_stream(&campaign.execute_stream(&|_| Self::sink()), "caching")
    }

    /// Pushes the probe's two runs (`{prefix}/same`, `{prefix}/distinct`)
    /// onto a campaign, so several probes (different configs, different
    /// FEs) execute as one parallel batch.
    pub fn add_to(&self, campaign: &mut Campaign, prefix: &str, cfg: ServiceConfig) {
        campaign.push(format!("{prefix}/same"), cfg.clone(), self.design(true));
        campaign.push(format!("{prefix}/distinct"), cfg, self.design(false));
    }

    /// Extracts the comparison for the runs pushed under `prefix` from
    /// an execution whose sinks were [`ProbeSink`]s.
    pub fn outcome_stream(
        &self,
        report: &StreamReport<Vec<(f64, f64)>>,
        prefix: &str,
    ) -> Option<CachingOutcome> {
        self.outcome_from_pairs(
            report.output(&format!("{prefix}/same")),
            report.output(&format!("{prefix}/distinct")),
        )
    }

    /// The comparison itself, over per-run `(rtt_ms, t_dynamic_ms)`
    /// sample pairs in completion order — all the probe retains per
    /// query under the streaming pipeline (16 bytes instead of the full
    /// processed record).
    pub fn outcome_from_pairs(
        &self,
        same: &[(f64, f64)],
        distinct: &[(f64, f64)],
    ) -> Option<CachingOutcome> {
        let near = |ps: &[(f64, f64)]| -> Vec<f64> {
            let filtered: Vec<f64> = ps
                .iter()
                .filter(|(rtt, _)| *rtt <= self.max_rtt_ms)
                .map(|&(_, td)| td)
                .collect();
            if filtered.len() >= 10 {
                filtered
            } else {
                // Too few close vantages: fall back to the full sample
                // (weaker test, still sound for the NoCaching direction).
                ps.iter().map(|&(_, td)| td).collect()
            }
        };
        let same_ms = near(same);
        let distinct_ms = near(distinct);
        let probe = caching_verdict(&same_ms, &distinct_ms)?;
        Some(CachingOutcome {
            same_query_ms: same_ms,
            distinct_query_ms: distinct_ms,
            probe,
        })
    }

    /// The streaming sink for a probe run: retains only the
    /// `(rtt_ms, t_dynamic_ms)` pair per query.
    pub fn sink() -> ProbeSink {
        ProbeSink::default()
    }

    fn design(&self, same_query: bool) -> Design {
        let fe = self.fe;
        let repeats = self.repeats_per_client;
        let spacing = self.spacing;
        Design::custom(move |sim| {
            sim.with(|w, net| {
                let be = w.be_of_fe(fe);
                w.prewarm(net, fe, be, 4);
                let n_clients = w.clients().len();
                // Anchor keyword and its class-mates (excluding the anchor).
                let anchor = w.corpus().get(0);
                let class_mates: Vec<u64> = w
                    .corpus()
                    .all()
                    .filter(|k| k.class == anchor.class && k.id != anchor.id)
                    .map(|k| k.id)
                    .collect();
                assert!(!class_mates.is_empty(), "corpus too small for the probe");
                for client in 0..n_clients {
                    let stagger = SimDuration::from_millis(3_000 + (client as u64 * 53) % 2_500);
                    for r in 0..repeats {
                        let keyword = if same_query {
                            anchor.id
                        } else {
                            // Distinct per (client, repeat), same class.
                            class_mates[((client as u64 * repeats + r) % class_mates.len() as u64)
                                as usize]
                        };
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
        })
    }
}

/// Streaming sink collecting each query's `(rtt_ms, t_dynamic_ms)` —
/// everything [`CachingProbeRun::outcome_from_pairs`] needs.
#[derive(Clone, Debug, Default)]
pub struct ProbeSink {
    pairs: Vec<(f64, f64)>,
}

impl QuerySink for ProbeSink {
    type Output = Vec<(f64, f64)>;

    fn on_query(&mut self, pq: &ProcessedQuery) {
        self.pairs.push((pq.params.rtt_ms, pq.params.t_dynamic_ms));
    }

    fn retained_bytes(&self) -> usize {
        self.pairs.capacity() * std::mem::size_of::<(f64, f64)>()
    }

    fn finish(self) -> Vec<(f64, f64)> {
        self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inference::caching::CachingVerdict;

    #[test]
    fn realistic_fes_do_not_cache() {
        let s = Scenario::small(31);
        let probe = CachingProbeRun::against(0);
        let out = probe.run(&s, ServiceConfig::google_like(31)).unwrap();
        assert_eq!(
            out.probe.verdict,
            CachingVerdict::NoCaching,
            "d={} same={} distinct={}",
            out.probe.ks_distance,
            out.probe.median_same_ms,
            out.probe.median_distinct_ms
        );
        assert!(out.same_query_ms.len() >= 10);
    }

    #[test]
    fn hypothetical_result_cache_is_detected() {
        let s = Scenario::small(32);
        let probe = CachingProbeRun::against(0);
        let out = probe
            .run(&s, ServiceConfig::google_like(32).with_fe_result_cache())
            .unwrap();
        assert_eq!(
            out.probe.verdict,
            CachingVerdict::CachingSuspected,
            "d={} same={} distinct={}",
            out.probe.ks_distance,
            out.probe.median_same_ms,
            out.probe.median_distinct_ms
        );
    }
}
