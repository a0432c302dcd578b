//! Shared experiment setup.
//!
//! Both services must be measured from the *same* vantage population
//! with the *same* keyword corpus for the comparison to be paired — the
//! paper submits "the same search queries to both Bing and Google search
//! engines" from the same PlanetLab nodes. [`Scenario`] pins that shared
//! context; per-service worlds are derived from it, and all of them share
//! its one copy of the vantages and the corpus.

use cdnsim::{ServiceConfig, ServiceWorld, WorldSpec};
use nettopo::vantage::{planetlab_like, Vantage, VantageConfig};
use searchbe::keywords::KeywordCorpus;
use std::sync::Arc;
use tcpsim::Sim;

/// The shared context of one measurement campaign.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Campaign seed (drives vantage placement, corpus generation and,
    /// through the service configs, every stochastic model).
    pub seed: u64,
    /// The vantage-point population.
    pub vantages: Arc<[Vantage]>,
    /// The keyword corpus.
    pub corpus: Arc<KeywordCorpus>,
}

impl Scenario {
    /// The paper-scale default: ~230 vantage points, a 40,000-keyword
    /// corpus.
    pub fn paper_scale(seed: u64) -> Scenario {
        Scenario::with_size(seed, 230, 40_000)
    }

    /// A small scenario for tests and quick benches.
    pub fn small(seed: u64) -> Scenario {
        Scenario::with_size(seed, 24, 500)
    }

    /// Explicit sizing.
    pub fn with_size(seed: u64, vantage_count: usize, corpus_size: usize) -> Scenario {
        let vantages = planetlab_like(
            seed,
            &VantageConfig {
                count: vantage_count,
                ..VantageConfig::default()
            },
        );
        let corpus = KeywordCorpus::generate(seed, corpus_size, 0.5);
        Scenario {
            seed,
            vantages: vantages.into(),
            corpus: Arc::new(corpus),
        }
    }

    /// Number of vantage points.
    pub fn vantage_count(&self) -> usize {
        self.vantages.len()
    }

    /// Builds a ready-to-run simulator for a service config, with packet
    /// tracing enabled. Any fault plan attached to the config is
    /// installed into the network (a no-op for the default empty plan).
    pub fn build_sim(&self, cfg: ServiceConfig) -> Sim<ServiceWorld> {
        // The historical world-seed derivation; campaign runs derive
        // per-run seeds via `spec` instead.
        self.spec(cfg, self.seed ^ 0x5eed_cafe).build()
    }

    /// The world descriptor for `cfg` under this scenario's shared
    /// vantage/corpus context, with an explicit network-side seed.
    /// Campaign descriptors construct their shard worlds through this.
    /// The descriptor shares the scenario's vantages and corpus.
    pub fn spec(&self, cfg: ServiceConfig, world_seed: u64) -> WorldSpec {
        WorldSpec {
            cfg,
            vantages: Arc::clone(&self.vantages),
            corpus: Arc::clone(&self.corpus),
            world_seed,
        }
    }

    /// Convenience: the Bing-like simulator.
    pub fn bing_sim(&self) -> Sim<ServiceWorld> {
        self.build_sim(ServiceConfig::bing_like(self.seed))
    }

    /// Convenience: the Google-like simulator.
    pub fn google_sim(&self) -> Sim<ServiceWorld> {
        self.build_sim(ServiceConfig::google_like(self.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_dimensions() {
        let s = Scenario::paper_scale(1);
        assert_eq!(s.vantage_count(), 230);
        assert_eq!(s.corpus.len(), 40_000);
    }

    #[test]
    fn both_services_share_the_same_vantages() {
        let s = Scenario::small(2);
        let mut bing = s.bing_sim();
        let mut google = s.google_sim();
        let b0 = bing.with(|w, _| w.clients()[0].pt);
        let g0 = google.with(|w, _| w.clients()[0].pt);
        assert_eq!(b0, g0);
    }

    #[test]
    fn worlds_share_one_corpus_and_vantage_list() {
        let s = Scenario::small(4);
        let mut bing = s.bing_sim();
        let mut google = s.spec(ServiceConfig::google_like(4), 9).build();
        let (bc, bv) = bing.with(|w, _| (w.corpus() as *const _, w.clients().as_ptr()));
        let (gc, gv) = google.with(|w, _| (w.corpus() as *const _, w.clients().as_ptr()));
        assert!(std::ptr::eq(bc, gc), "each world copied the corpus");
        assert!(std::ptr::eq(bc, &*s.corpus));
        assert!(std::ptr::eq(bv, gv), "each world copied the vantages");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Scenario::small(3);
        let b = Scenario::small(3);
        assert_eq!(a.vantages[5].pt, b.vantages[5].pt);
        assert_eq!(a.corpus.get(17), b.corpus.get(17));
    }
}
