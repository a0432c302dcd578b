//! Classifier agreement scoring.
//!
//! The paper's static/dynamic split rests on content analysis; the
//! simulator carries ground-truth markers precisely so the blind
//! classifiers can be *scored* rather than trusted. [`score_classifier`]
//! measures, over a batch of sessions, how often a candidate classifier
//! reproduces the oracle's boundary packets (`t4`, `t5`) and how far its
//! `Tdelta` deviates when it does not — the quantities that decide
//! whether downstream inference (fetch brackets, thresholds) survives
//! the classifier's mistakes.

use crate::classify::Classifier;
use crate::timeline::Timeline;
use tcpsim::{Capture, NodeId};

/// Agreement metrics of a candidate classifier against the marker
/// oracle, over a session batch.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassifierScore {
    /// Sessions where both classifiers produced a timeline.
    pub comparable: usize,
    /// Sessions where the candidate failed to produce a timeline but the
    /// oracle did.
    pub candidate_failed: usize,
    /// Sessions with exact agreement on the boundary (`t4` and `t5`).
    pub boundary_exact: usize,
    /// Mean absolute `Tdelta` error over comparable sessions, ms.
    pub mean_tdelta_err_ms: f64,
    /// Worst absolute `Tdelta` error, ms.
    pub max_tdelta_err_ms: f64,
    /// Mean absolute static-byte-count error, bytes.
    pub mean_static_bytes_err: f64,
}

impl ClassifierScore {
    /// Fraction of comparable sessions with exact boundary agreement.
    pub fn boundary_accuracy(&self) -> f64 {
        if self.comparable == 0 {
            return 0.0;
        }
        self.boundary_exact as f64 / self.comparable as f64
    }
}

/// Scores `candidate` against [`Classifier::ByMarker`] over a batch of
/// `(capture, client)` sessions.
pub fn score_classifier(
    sessions: &[(&Capture, NodeId)],
    candidate: &Classifier,
) -> ClassifierScore {
    let mut score = ClassifierScore {
        comparable: 0,
        candidate_failed: 0,
        boundary_exact: 0,
        mean_tdelta_err_ms: 0.0,
        max_tdelta_err_ms: 0.0,
        mean_static_bytes_err: 0.0,
    };
    let mut tdelta_errs = Vec::new();
    let mut byte_errs = Vec::new();
    for &(capture, client) in sessions {
        let oracle = match Timeline::extract(capture, client, &Classifier::ByMarker) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let cand = match Timeline::extract(capture, client, candidate) {
            Ok(t) => t,
            Err(_) => {
                score.candidate_failed += 1;
                continue;
            }
        };
        score.comparable += 1;
        if oracle.t4 == cand.t4 && oracle.t5 == cand.t5 {
            score.boundary_exact += 1;
        }
        tdelta_errs.push((oracle.t_delta_ms() - cand.t_delta_ms()).abs());
        byte_errs.push((oracle.static_bytes as f64 - cand.static_bytes as f64).abs());
    }
    if !tdelta_errs.is_empty() {
        score.mean_tdelta_err_ms = tdelta_errs.iter().sum::<f64>() / tdelta_errs.len() as f64;
        score.max_tdelta_err_ms = tdelta_errs.iter().cloned().fold(0.0, f64::max);
        score.mean_static_bytes_err = byte_errs.iter().sum::<f64>() / byte_errs.len() as f64;
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Classifier;
    use crate::testutil::{capture, ev, span};
    use std::collections::HashSet;
    use tcpsim::{Marker, PktDir, PktKind};

    fn session(coalesced: bool) -> Capture {
        let mut v = vec![
            ev(0, PktDir::Tx, PktKind::Syn, 0, 0, 0, false, vec![]),
            ev(50, PktDir::Rx, PktKind::SynAck, 0, 0, 0, false, vec![]),
            ev(
                50,
                PktDir::Tx,
                PktKind::Data,
                0,
                400,
                0,
                true,
                vec![span(0, 400, Marker::Request, 900)],
            ),
            ev(100, PktDir::Rx, PktKind::Ack, 0, 0, 400, false, vec![]),
        ];
        if coalesced {
            v.push(ev(
                105,
                PktDir::Rx,
                PktKind::Data,
                0,
                1460,
                400,
                true,
                vec![
                    span(0, 1000, Marker::Static, 1),
                    span(1000, 460, Marker::Dynamic, 1001),
                ],
            ));
            v.push(ev(
                106,
                PktDir::Rx,
                PktKind::Data,
                1460,
                500,
                400,
                true,
                vec![span(1460, 500, Marker::Dynamic, 1001)],
            ));
        } else {
            v.push(ev(
                105,
                PktDir::Rx,
                PktKind::Data,
                0,
                1000,
                400,
                true,
                vec![span(0, 1000, Marker::Static, 1)],
            ));
            v.push(ev(
                250,
                PktDir::Rx,
                PktKind::Data,
                1000,
                960,
                400,
                true,
                vec![span(1000, 960, Marker::Dynamic, 1001)],
            ));
        }
        capture(NodeId(1), &v)
    }

    #[test]
    fn content_classifier_scores_perfectly_here() {
        let s1 = session(false);
        let s2 = session(true);
        let sessions = [(&s1, NodeId(1)), (&s2, NodeId(1))];
        let ids: HashSet<u64> = [1u64].into();
        let score = score_classifier(&sessions, &Classifier::ByContent(ids));
        assert_eq!(score.comparable, 2);
        assert_eq!(score.boundary_exact, 2);
        assert_eq!(score.boundary_accuracy(), 1.0);
        assert_eq!(score.mean_tdelta_err_ms, 0.0);
        assert_eq!(score.candidate_failed, 0);
    }

    #[test]
    fn push_classifier_misses_the_coalesced_boundary() {
        let s1 = session(false);
        let s2 = session(true);
        let sessions = [(&s1, NodeId(1)), (&s2, NodeId(1))];
        let score = score_classifier(&sessions, &Classifier::ByPush);
        // The separated session agrees exactly; the coalesced one puts
        // the first dynamic bytes in the "static" packet, so ByPush gets
        // t5 wrong (and miscounts static bytes by the coalesced 460).
        assert_eq!(score.comparable, 2);
        assert_eq!(score.boundary_exact, 1);
        assert!(score.boundary_accuracy() < 1.0);
        assert!(score.mean_static_bytes_err > 0.0);
    }

    #[test]
    fn empty_batch_scores_zero() {
        let score = score_classifier(&[], &Classifier::ByPush);
        assert_eq!(score.comparable, 0);
        assert_eq!(score.boundary_accuracy(), 0.0);
    }
}
