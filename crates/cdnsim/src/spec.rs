//! Descriptor-based world construction.
//!
//! A [`WorldSpec`] is everything needed to construct one ready-to-run
//! simulator world: the service configuration, the shared vantage
//! population and keyword corpus, the network-side seed, and the trace
//! switch. Campaign runners hold a list of these descriptors and build
//! each world independently — on whichever worker thread picks the run
//! up — which is only sound because construction here depends on nothing
//! but the descriptor's own fields.

use crate::service::ServiceConfig;
use crate::world::ServiceWorld;
use nettopo::vantage::Vantage;
use searchbe::keywords::KeywordCorpus;
use std::sync::Arc;
use tcpsim::Sim;

/// Everything needed to construct one simulator world.
#[derive(Clone, Debug)]
pub struct WorldSpec {
    /// The service under test (carries its own model seed, fault plan,
    /// retry policy and ablation switches).
    pub cfg: ServiceConfig,
    /// The vantage-point population, shared with every world built.
    pub vantages: Arc<[Vantage]>,
    /// The keyword corpus, shared with every world built.
    pub corpus: Arc<KeywordCorpus>,
    /// Seed of the network-side randomness (path jitter, loss draws).
    /// The FE/BE stochastic models are keyed on `cfg.seed` instead.
    pub world_seed: u64,
    /// Whether each query's client-side packets are captured (required
    /// for timeline extraction; off only for throwaway planning worlds).
    pub trace: bool,
}

impl WorldSpec {
    /// Builds the ready-to-run simulator: constructs the world, seeds the
    /// network, enables tracing as configured, and installs any fault
    /// plan attached to the config (a no-op for the default empty plan).
    pub fn build(&self) -> Sim<ServiceWorld> {
        let world = ServiceWorld::new(
            self.cfg.clone(),
            Arc::clone(&self.vantages),
            Arc::clone(&self.corpus),
        );
        let mut sim = Sim::new(self.world_seed, world);
        sim.net().set_tracing(self.trace);
        sim.with(|w, net| w.install_faults(net));
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettopo::vantage::{planetlab_like, VantageConfig};

    fn spec(world_seed: u64) -> WorldSpec {
        WorldSpec {
            cfg: ServiceConfig::google_like(5),
            vantages: planetlab_like(
                5,
                &VantageConfig {
                    count: 6,
                    ..VantageConfig::default()
                },
            )
            .into(),
            corpus: Arc::new(KeywordCorpus::generate(5, 50, 0.5)),
            world_seed,
            trace: true,
        }
    }

    #[test]
    fn identical_specs_build_identical_worlds() {
        let mut a = spec(77).build();
        let mut b = spec(77).build();
        assert_eq!(
            a.with(|w, _| w.client_fe_rtt_ms(0, 0)),
            b.with(|w, _| w.client_fe_rtt_ms(0, 0))
        );
        // Same network seed: the jitter streams coincide too.
        assert_eq!(a.net().rng().next_u64(), b.net().rng().next_u64());
    }

    #[test]
    fn world_seed_only_touches_the_network_side() {
        let mut a = spec(77).build();
        let mut b = spec(78).build();
        // Geometry and service models are identical …
        assert_eq!(
            a.with(|w, _| w.default_fe(3)),
            b.with(|w, _| w.default_fe(3))
        );
        // … only the network randomness differs.
        assert_ne!(a.net().rng().next_u64(), b.net().rng().next_u64());
    }
}
