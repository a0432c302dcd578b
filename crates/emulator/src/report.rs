//! Campaign summary reports.
//!
//! Turns processed-query sets into the compact comparison tables the
//! figure harnesses and examples print: per-service medians and
//! variability of every paper quantity, rendered as aligned text or
//! GitHub-flavoured markdown.

use crate::runner::ProcessedQuery;
use crate::sink::QuerySink;
use stats::quantile::Summary;
use stats::streaming::SummaryAcc;

/// The summary statistics of one campaign (one service / configuration).
#[derive(Clone, Debug)]
pub struct CampaignSummary {
    /// Campaign label.
    pub label: String,
    /// Number of queries.
    pub n: usize,
    /// Distribution of measured handshake RTTs (ms).
    pub rtt: Summary,
    /// Distribution of `Tstatic` (ms).
    pub t_static: Summary,
    /// Distribution of `Tdynamic` (ms).
    pub t_dynamic: Summary,
    /// Distribution of `Tdelta` (ms).
    pub t_delta: Summary,
    /// Distribution of the overall delay (ms).
    pub overall: Summary,
    /// Distribution of ground-truth `Tproc` (ms), when available.
    pub true_proc: Option<Summary>,
}

impl CampaignSummary {
    /// Summarises a campaign. Returns `None` for empty input.
    pub fn of(label: impl Into<String>, queries: &[ProcessedQuery]) -> Option<CampaignSummary> {
        let mut acc = CampaignSummaryAcc::new(label);
        for q in queries {
            acc.push(q);
        }
        acc.finish()
    }
}

/// Streaming builder of a [`CampaignSummary`]: folds queries one at a
/// time into exact [`SummaryAcc`]s, so campaigns summarise without a
/// `Vec<ProcessedQuery>` buffer. Exact accumulators sort at finish and
/// call the same [`Summary::of`] path as the batch constructor — the
/// resulting summary is bit-identical to
/// [`CampaignSummary::of`] on the same query sequence.
#[derive(Clone, Debug)]
pub struct CampaignSummaryAcc {
    label: String,
    n: usize,
    rtt: SummaryAcc,
    t_static: SummaryAcc,
    t_dynamic: SummaryAcc,
    t_delta: SummaryAcc,
    overall: SummaryAcc,
    proc: SummaryAcc,
}

impl CampaignSummaryAcc {
    /// An empty accumulator for a campaign labelled `label`.
    pub fn new(label: impl Into<String>) -> CampaignSummaryAcc {
        CampaignSummaryAcc {
            label: label.into(),
            n: 0,
            rtt: SummaryAcc::exact(),
            t_static: SummaryAcc::exact(),
            t_dynamic: SummaryAcc::exact(),
            t_delta: SummaryAcc::exact(),
            overall: SummaryAcc::exact(),
            proc: SummaryAcc::exact(),
        }
    }

    /// Folds in one query.
    pub fn push(&mut self, q: &ProcessedQuery) {
        self.n += 1;
        self.rtt.push(q.params.rtt_ms);
        self.t_static.push(q.params.t_static_ms);
        self.t_dynamic.push(q.params.t_dynamic_ms);
        self.t_delta.push(q.params.t_delta_ms);
        self.overall.push(q.params.overall_ms);
        if q.proc_ms > 0.0 {
            self.proc.push(q.proc_ms);
        }
    }

    /// Reduces to the summary; `None` when no query was folded.
    pub fn finish(&self) -> Option<CampaignSummary> {
        if self.n == 0 {
            return None;
        }
        Some(CampaignSummary {
            label: self.label.clone(),
            n: self.n,
            rtt: self.rtt.summary()?,
            t_static: self.t_static.summary()?,
            t_dynamic: self.t_dynamic.summary()?,
            t_delta: self.t_delta.summary()?,
            overall: self.overall.summary()?,
            true_proc: self.proc.summary(),
        })
    }

    /// Bytes retained across the six column buffers.
    pub fn retained(&self) -> usize {
        self.rtt.retained_bytes()
            + self.t_static.retained_bytes()
            + self.t_dynamic.retained_bytes()
            + self.t_delta.retained_bytes()
            + self.overall.retained_bytes()
            + self.proc.retained_bytes()
    }
}

impl QuerySink for CampaignSummaryAcc {
    type Output = Option<CampaignSummary>;

    fn on_query(&mut self, pq: &ProcessedQuery) {
        self.push(pq);
    }

    fn retained_bytes(&self) -> usize {
        self.retained()
    }

    fn finish(self) -> Option<CampaignSummary> {
        CampaignSummaryAcc::finish(&self)
    }
}

/// Renders campaign summaries as a GitHub-flavoured markdown table
/// (medians, with IQR in parentheses).
pub fn markdown_table(summaries: &[CampaignSummary]) -> String {
    let mut out = String::from(
        "| campaign | n | RTT (ms) | Tstatic | Tdynamic | Tdelta | overall | true Tproc |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for s in summaries {
        let cell = |x: &Summary| format!("{:.1} ({:.1})", x.median, x.p75 - x.p25);
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            s.label,
            s.n,
            cell(&s.rtt),
            cell(&s.t_static),
            cell(&s.t_dynamic),
            cell(&s.t_delta),
            cell(&s.overall),
            match &s.true_proc {
                Some(p) => cell(p),
                None => "—".into(),
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use inference::QueryParams;
    use searchbe::keywords::KeywordClass;

    fn q(rtt: f64, td: f64, proc: f64) -> ProcessedQuery {
        ProcessedQuery {
            qid: 1,
            client: 0,
            fe: Some(0),
            be: 0,
            keyword: 0,
            class: KeywordClass::Popular,
            t_start_ms: 0.0,
            params: QueryParams {
                rtt_ms: rtt,
                t_static_ms: rtt + 10.0,
                t_dynamic_ms: td,
                t_delta_ms: (td - rtt - 10.0).max(0.0),
                overall_ms: td + 100.0,
                static_bytes: 9000,
                total_bytes: 30000,
            },
            rtt_nominal_ms: rtt,
            rtt_fe_be_ms: 20.0,
            dist_fe_be_miles: 300.0,
            proc_ms: proc,
            fe_overhead_ms: 5.0,
            true_fetch_ms: Some(td - 5.0),
            outcome: cdnsim::QueryOutcome::Ok,
        }
    }

    #[test]
    fn summary_medians_correct() {
        let queries = vec![
            q(10.0, 100.0, 30.0),
            q(20.0, 200.0, 40.0),
            q(30.0, 300.0, 50.0),
        ];
        let s = CampaignSummary::of("test", &queries).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.rtt.median, 20.0);
        assert_eq!(s.t_dynamic.median, 200.0);
        assert_eq!(s.true_proc.as_ref().unwrap().median, 40.0);
    }

    #[test]
    fn empty_is_none() {
        assert!(CampaignSummary::of("x", &[]).is_none());
    }

    #[test]
    fn zero_proc_excluded_from_truth() {
        // FE cache hits report proc 0 and must not drag the Tproc column.
        let queries = vec![q(10.0, 100.0, 0.0), q(10.0, 100.0, 40.0)];
        let s = CampaignSummary::of("x", &queries).unwrap();
        assert_eq!(s.true_proc.as_ref().unwrap().n, 1);
        assert_eq!(s.true_proc.as_ref().unwrap().median, 40.0);
    }

    #[test]
    fn markdown_table_shape() {
        let queries = vec![q(10.0, 100.0, 30.0)];
        let s = CampaignSummary::of("svc-a", &queries).unwrap();
        let md = markdown_table(&[s]);
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("| campaign |"));
        assert!(lines[2].contains("svc-a"));
        assert_eq!(lines[2].matches('|').count(), 9);
    }
}
