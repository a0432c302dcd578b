//! "Search as you type" sessions (Sec. 6).
//!
//! The paper's preliminary look at interactive search found that "after
//! each letter a user has typed, a separate query (using a new TCP
//! connection) is sent to the FE server. The delivery of each query hence
//! still fits our basic model; although ... the search query processing
//! times at the BE data centers are generally reduced because the
//! subsequent queries are highly correlated with previous queries."
//!
//! [`instant_session`] expands a final query into the per-keystroke
//! sub-query sequence with typing gaps; the emulator issues each
//! sub-query over a fresh connection, flagging all but the first as
//! correlated follow-ups (which the BE discounts).

use crate::keywords::Keyword;
use simcore::dist::Dist;
use simcore::rng::Rng;
use simcore::time::SimDuration;

/// One keystroke-triggered sub-query.
#[derive(Clone, Debug)]
pub struct InstantQuery {
    /// Prefix length in characters.
    pub prefix_chars: usize,
    /// Delay after the previous sub-query was issued (typing gap).
    pub gap: SimDuration,
    /// True for every sub-query after the first (BE applies its
    /// correlated-query discount).
    pub followup: bool,
}

/// Expands `kw` into its per-keystroke sub-queries. Sub-queries start
/// once the prefix reaches `min_prefix` characters; typing gaps are drawn
/// from a per-keystroke distribution (~180 ms median).
pub fn instant_session(kw: &Keyword, min_prefix: usize, rng: &mut Rng) -> Vec<InstantQuery> {
    let total = kw.chars;
    if total < min_prefix {
        return vec![InstantQuery {
            prefix_chars: total,
            gap: SimDuration::ZERO,
            followup: false,
        }];
    }
    let gap_dist = Dist::lognormal_median_spread(180.0, 1.5);
    let mut out = Vec::with_capacity(total - min_prefix + 1);
    for (i, prefix_chars) in (min_prefix..=total).enumerate() {
        let gap = if i == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_millis_f64(gap_dist.sample(rng))
        };
        out.push(InstantQuery {
            prefix_chars,
            gap,
            followup: i > 0,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keywords::KeywordCorpus;

    fn kw() -> Keyword {
        KeywordCorpus::generate(1, 10, 0.5).get(0)
    }

    #[test]
    fn one_subquery_per_keystroke_after_min_prefix() {
        let k = kw();
        let mut rng = Rng::from_seed(1);
        let session = instant_session(&k, 3, &mut rng);
        assert_eq!(session.len(), k.chars - 3 + 1);
        assert_eq!(session[0].prefix_chars, 3);
        assert_eq!(session.last().unwrap().prefix_chars, k.chars);
    }

    #[test]
    fn first_query_is_not_a_followup() {
        let k = kw();
        let mut rng = Rng::from_seed(2);
        let session = instant_session(&k, 3, &mut rng);
        assert!(!session[0].followup);
        assert!(session[1..].iter().all(|q| q.followup));
    }

    #[test]
    fn typing_gaps_are_humanlike() {
        let k = kw();
        let mut rng = Rng::from_seed(3);
        let session = instant_session(&k, 3, &mut rng);
        assert_eq!(session[0].gap, SimDuration::ZERO);
        for q in &session[1..] {
            let ms = q.gap.as_millis_f64();
            assert!(ms > 20.0 && ms < 2_000.0, "gap {ms}ms");
        }
    }

    #[test]
    fn short_query_degenerates_to_single_query() {
        let k = Keyword { chars: 2, ..kw() };
        let mut rng = Rng::from_seed(4);
        let session = instant_session(&k, 3, &mut rng);
        assert_eq!(session.len(), 1);
        assert!(!session[0].followup);
        assert_eq!(session[0].prefix_chars, 2);
    }
}
