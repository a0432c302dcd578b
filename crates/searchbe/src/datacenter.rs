//! The back-end data center: query in, `(Tproc, ResponsePlan)` out.

use crate::keywords::Keyword;
use crate::proctime::{BackendProfile, LoadProcess};
use crate::response::{PageComposer, ResponsePlan};
use nettopo::metro::Region;
use simcore::rng::Rng;
use simcore::time::SimDuration;

/// One back-end data center instance.
///
/// Owns its processing-time profile, load process, page composer and RNG
/// stream; every query advances the load process, so busy spells persist
/// across consecutive queries — the temporal structure visible in Fig. 3.
#[derive(Debug)]
pub struct BeDataCenter {
    /// Service profile.
    pub profile: BackendProfile,
    load: LoadProcess,
    composer: PageComposer,
    rng: Rng,
    queries_served: u64,
}

/// The outcome of one back-end query.
#[derive(Clone, Debug)]
pub struct BeResult {
    /// Query processing time at the data center.
    pub proc_time: SimDuration,
    /// The composed response.
    pub plan: ResponsePlan,
    /// Load factor in effect while processing.
    pub load_factor: f64,
}

impl BeDataCenter {
    /// Creates a Google-like data center.
    pub fn google_like(seed: u64, site: &str) -> BeDataCenter {
        BeDataCenter::new(
            seed,
            site,
            BackendProfile::google_like(),
            PageComposer::google_like(),
        )
    }

    /// Creates a Bing-like data center.
    pub fn bing_like(seed: u64, site: &str) -> BeDataCenter {
        BeDataCenter::new(
            seed,
            site,
            BackendProfile::bing_like(),
            PageComposer::bing_like(),
        )
    }

    /// Creates a data center from explicit models.
    pub fn new(
        seed: u64,
        site: &str,
        profile: BackendProfile,
        composer: PageComposer,
    ) -> BeDataCenter {
        let rng = Rng::from_seed_and_name(seed, &format!("searchbe/dc/{site}"));
        let load = LoadProcess::new(profile.load_amplitude, profile.load_volatility);
        BeDataCenter {
            profile,
            load,
            composer,
            rng,
            queries_served: 0,
        }
    }

    /// Processes one query: draws `Tproc` under the current load and
    /// composes the response. `instant_followup` applies the
    /// correlated-query discount of "search as you type" sessions;
    /// `region` localises the result page (review #2's concern — sizes
    /// shift a few percent per region, per the paper's footnote 2).
    pub fn handle_query(
        &mut self,
        kw: &Keyword,
        instant_followup: bool,
        region: Option<Region>,
    ) -> BeResult {
        self.queries_served += 1;
        let load_factor = self.load.step(&mut self.rng);
        let mut ms = self.profile.sample_ms(kw.class, load_factor, &mut self.rng);
        if instant_followup {
            ms *= self.profile.instant_discount;
        }
        let plan = self.composer.compose(kw, region, &mut self.rng);
        BeResult {
            proc_time: SimDuration::from_millis_f64(ms),
            plan,
            load_factor,
        }
    }

    /// Number of queries served.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keywords::KeywordCorpus;

    #[test]
    fn serves_queries_deterministically() {
        let corpus = KeywordCorpus::generate(1, 100, 0.5);
        let run = || {
            let mut dc = BeDataCenter::google_like(42, "Lenoir NC");
            (0..50)
                .map(|i| dc.handle_query(&corpus.get(i % 100), false, None).proc_time)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn google_like_is_faster_than_bing_like() {
        let corpus = KeywordCorpus::generate(2, 100, 0.5);
        let mut g = BeDataCenter::google_like(42, "x");
        let mut b = BeDataCenter::bing_like(42, "y");
        let kw = corpus.get(1);
        let avg = |dc: &mut BeDataCenter| {
            (0..2000)
                .map(|_| dc.handle_query(&kw, false, None).proc_time.as_millis_f64())
                .sum::<f64>()
                / 2000.0
        };
        let ga = avg(&mut g);
        let ba = avg(&mut b);
        assert!(ba > 2.5 * ga, "bing {ba} vs google {ga}");
    }

    #[test]
    fn instant_followups_are_discounted() {
        let corpus = KeywordCorpus::generate(3, 10, 0.5);
        let kw = corpus.get(0);
        let avg = |followup: bool| {
            let mut dc = BeDataCenter::google_like(7, "z");
            (0..3000)
                .map(|_| {
                    dc.handle_query(&kw, followup, None)
                        .proc_time
                        .as_millis_f64()
                })
                .sum::<f64>()
                / 3000.0
        };
        let full = avg(false);
        let disc = avg(true);
        assert!(
            (disc / full - BackendProfile::google_like().instant_discount).abs() < 0.05,
            "ratio {}",
            disc / full
        );
    }

    #[test]
    fn load_factor_reported_and_bounded() {
        let corpus = KeywordCorpus::generate(4, 10, 0.5);
        let mut dc = BeDataCenter::bing_like(11, "w");
        for _ in 0..500 {
            let r = dc.handle_query(&corpus.get(0), false, None);
            assert!(r.load_factor >= 1.0);
            assert!(r.load_factor <= 1.0 + dc.profile.load_amplitude + 1e-9);
        }
        assert_eq!(dc.queries_served(), 500);
    }
}
