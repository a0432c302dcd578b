//! Per-group (per-vantage, per-FE) aggregation.
//!
//! Every point in the paper's Figs. 5 and 7 is a *median over the
//! repeated queries of one PlanetLab node*; the medians suppress
//! short-term fluctuation ("as the performance is susceptible to
//! short-term fluctuations"). [`per_group_medians`] reproduces that
//! reduction.

use crate::params::QueryParams;
use stats::quantile::Summary;
use stats::streaming::{QuantileAcc, SummaryAcc};
use std::collections::BTreeMap;

/// The per-group medians of all measurement quantities.
#[derive(Clone, Debug)]
pub struct GroupMedians {
    /// Group key (vantage id, FE id — caller-defined).
    pub group: u64,
    /// Number of samples in the group.
    pub n: usize,
    /// Median handshake RTT (ms).
    pub rtt_ms: f64,
    /// Median `Tstatic` (ms).
    pub t_static_ms: f64,
    /// Median `Tdynamic` (ms).
    pub t_dynamic_ms: f64,
    /// Median `Tdelta` (ms).
    pub t_delta_ms: f64,
    /// Median overall delay (ms).
    pub overall_ms: f64,
    /// Full distribution summary of the overall delay (for the Fig. 8
    /// box plots).
    pub overall_summary: Summary,
}

/// Robustness bookkeeping for one collection run.
///
/// Real measurement campaigns lose sessions — vantage points crash,
/// servers time out, retransmission storms make timings meaningless. The
/// pipeline must *skip but count*: excluded sessions never silently
/// vanish. Outcome counts come from ground truth (what happened to the
/// query); `skipped` counts sessions whose client-side timeline could
/// not be extracted, independent of outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionTally {
    /// Clean first-attempt successes.
    pub ok: usize,
    /// Degraded responses (error stub in place of dynamic content).
    pub degraded: usize,
    /// Successes that needed at least one client retry.
    pub retried: usize,
    /// Queries that exhausted their retry budget.
    pub timed_out: usize,
    /// Queries rejected by FE admission control (load shedding) on
    /// their final attempt.
    pub shed: usize,
    /// Queries that never got an attempt because every FE the mapping
    /// strategy could return was dead at resolution time.
    pub no_live_fe: usize,
    /// Sessions excluded from inference because timeline extraction
    /// failed (truncated, no handshake, retransmission-heavy, …).
    pub skipped: usize,
}

impl SessionTally {
    /// Total sessions observed (excluded ones included).
    pub fn total(&self) -> usize {
        self.ok + self.degraded + self.retried + self.timed_out + self.shed + self.no_live_fe
    }

    /// Fraction of observed sessions that made it into the inference
    /// input (1.0 when nothing was skipped; 0.0 for an empty run).
    pub fn usable_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (total - self.skipped.min(total)) as f64 / total as f64
    }

    /// Adds another tally's counts — shard tallies merge in descriptor
    /// order like every other streaming reducer.
    pub fn merge(&mut self, other: &SessionTally) {
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.retried += other.retried;
        self.timed_out += other.timed_out;
        self.shed += other.shed;
        self.no_live_fe += other.no_live_fe;
        self.skipped += other.skipped;
    }
}

/// Streaming per-group aggregation: the online counterpart of
/// [`per_group_medians`]. Each group folds its five measurement columns
/// into quantile accumulators as samples arrive; [`finish`] reduces to
/// the same [`GroupMedians`] records the batch path produced —
/// bit-identically, because the accumulators are exact: they sort and
/// delegate to the very batch helpers the old code called.
///
/// [`finish`]: GroupMediansAcc::finish
#[derive(Clone, Debug)]
pub struct GroupMediansAcc {
    groups: BTreeMap<u64, GroupAcc>,
}

#[derive(Clone, Debug)]
struct GroupAcc {
    rtt: QuantileAcc,
    t_static: QuantileAcc,
    t_dynamic: QuantileAcc,
    t_delta: QuantileAcc,
    overall: SummaryAcc,
}

impl GroupAcc {
    fn new() -> GroupAcc {
        GroupAcc {
            rtt: QuantileAcc::exact(),
            t_static: QuantileAcc::exact(),
            t_dynamic: QuantileAcc::exact(),
            t_delta: QuantileAcc::exact(),
            overall: SummaryAcc::exact(),
        }
    }
}

impl GroupMediansAcc {
    /// Exact accumulators (bit-identical to the batch reduction; memory
    /// grows with samples per group). The figure harnesses use this.
    pub fn exact() -> GroupMediansAcc {
        GroupMediansAcc {
            groups: BTreeMap::new(),
        }
    }

    /// Folds one sample into `key`'s group.
    pub fn push(&mut self, key: u64, p: &QueryParams) {
        let g = self.groups.entry(key).or_insert_with(GroupAcc::new);
        g.rtt.push(p.rtt_ms);
        g.t_static.push(p.t_static_ms);
        g.t_dynamic.push(p.t_dynamic_ms);
        g.t_delta.push(p.t_delta_ms);
        g.overall.push(p.overall_ms);
    }

    /// Number of distinct groups so far.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Bytes retained across all group buffers.
    pub fn retained_bytes(&self) -> usize {
        self.groups
            .values()
            .map(|g| {
                g.rtt.retained_bytes()
                    + g.t_static.retained_bytes()
                    + g.t_dynamic.retained_bytes()
                    + g.t_delta.retained_bytes()
                    + g.overall.retained_bytes()
            })
            .sum()
    }

    /// Reduces to per-group medians in ascending key order.
    pub fn finish(&self) -> Vec<GroupMedians> {
        self.groups
            .iter()
            .map(|(&group, g)| GroupMedians {
                group,
                n: g.overall.count() as usize,
                rtt_ms: g.rtt.median().unwrap(),
                t_static_ms: g.t_static.median().unwrap(),
                t_dynamic_ms: g.t_dynamic.median().unwrap(),
                t_delta_ms: g.t_delta.median().unwrap(),
                overall_ms: g.overall.summary().map(|s| s.median).unwrap(),
                overall_summary: g.overall.summary().unwrap(),
            })
            .collect()
    }
}

/// Groups samples by a key and reduces each group to its medians.
/// Groups are returned in ascending key order (deterministic output for
/// the figure harnesses).
pub fn per_group_medians(samples: &[(u64, QueryParams)]) -> Vec<GroupMedians> {
    let mut acc = GroupMediansAcc::exact();
    for (key, p) in samples {
        acc.push(*key, p);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(rtt: f64, ts: f64, td: f64, overall: f64) -> QueryParams {
        QueryParams {
            rtt_ms: rtt,
            t_static_ms: ts,
            t_dynamic_ms: td,
            t_delta_ms: (td - ts).max(0.0),
            overall_ms: overall,
            static_bytes: 9000,
            total_bytes: 30000,
        }
    }

    #[test]
    fn groups_and_medians() {
        let samples = vec![
            (1, p(10.0, 20.0, 100.0, 300.0)),
            (1, p(10.0, 22.0, 110.0, 320.0)),
            (1, p(10.0, 24.0, 90.0, 310.0)),
            (2, p(50.0, 60.0, 200.0, 500.0)),
        ];
        let groups = per_group_medians(&samples);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].group, 1);
        assert_eq!(groups[0].n, 3);
        assert_eq!(groups[0].t_static_ms, 22.0);
        assert_eq!(groups[0].t_dynamic_ms, 100.0);
        assert_eq!(groups[0].overall_ms, 310.0);
        assert_eq!(groups[1].group, 2);
        assert_eq!(groups[1].n, 1);
        assert_eq!(groups[1].rtt_ms, 50.0);
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        let mut samples: Vec<(u64, QueryParams)> =
            (0..9).map(|_| (1, p(10.0, 20.0, 100.0, 300.0))).collect();
        samples.push((1, p(10.0, 20.0, 100_000.0, 300.0)));
        let groups = per_group_medians(&samples);
        assert_eq!(groups[0].t_dynamic_ms, 100.0);
    }

    #[test]
    fn output_sorted_by_group_key() {
        let samples = vec![
            (9, p(1.0, 2.0, 3.0, 4.0)),
            (3, p(1.0, 2.0, 3.0, 4.0)),
            (7, p(1.0, 2.0, 3.0, 4.0)),
        ];
        let groups = per_group_medians(&samples);
        let keys: Vec<u64> = groups.iter().map(|g| g.group).collect();
        assert_eq!(keys, vec![3, 7, 9]);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(per_group_medians(&[]).is_empty());
    }

    #[test]
    fn tally_totals_and_usable_fraction() {
        let t = SessionTally {
            ok: 5,
            degraded: 1,
            retried: 2,
            timed_out: 1,
            shed: 1,
            no_live_fe: 2,
            skipped: 2,
        };
        assert_eq!(t.total(), 12);
        assert!((t.usable_fraction() - 10.0 / 12.0).abs() < 1e-12);
        assert_eq!(SessionTally::default().total(), 0);
        assert_eq!(SessionTally::default().usable_fraction(), 0.0);
    }

    #[test]
    fn summary_attached_for_boxplots() {
        let samples: Vec<(u64, QueryParams)> = (0..100)
            .map(|i| (1, p(10.0, 20.0, 100.0, 200.0 + i as f64)))
            .collect();
        let g = &per_group_medians(&samples)[0];
        assert_eq!(g.overall_summary.n, 100);
        assert!(g.overall_summary.p25 < g.overall_summary.p75);
    }
}
