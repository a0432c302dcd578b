//! Front-end server placement strategies.
//!
//! The paper contrasts two real deployments:
//!
//! * **Bing via Akamai** — a *dense edge* fleet: caches in nearly every
//!   metro, often co-located inside university campus networks (Sec. 6
//!   explicitly notes "some Akamai frontend servers are placed closer to
//!   University campus networks"), and **shared** with many other Akamai
//!   customers — the paper's candidate explanation for Bing's higher and
//!   more variable `Tstatic`.
//! * **Google's own FEs** — a *sparse POP* fleet: fewer sites at major
//!   metros only, but **dedicated** to Google's traffic.
//!
//! [`dense_edge`] and [`sparse_pop`] generate the two fleets. A client's
//! default FE is its nearest one, found with [`crate::geo::nearest`] as
//! DNS-based redirection approximates. Fig. 6's headline numbers (>80 %
//! of vantages within 20 ms of a Bing FE vs ~60 % for Google) emerge
//! from these placements plus the path model.

use crate::geo::GeoPoint;
use crate::metro::{top_metros, WORLD_METROS};
use simcore::dist::Dist;
use simcore::rng::Rng;

/// A front-end server site.
#[derive(Clone, Debug)]
pub struct FeSite {
    /// Stable identifier (index into the generated fleet).
    pub id: usize,
    /// Human-readable name.
    pub name: String,
    /// Location.
    pub pt: GeoPoint,
    /// True when the FE is a shared multi-tenant cache (Akamai-like);
    /// false for a dedicated single-service FE (Google-like). Drives the
    /// FE load model in `cdnsim`.
    pub shared_tenancy: bool,
    /// True when the FE sits inside a campus/edge network — vantages in
    /// the same metro see an extra-short last mile.
    pub campus_colocated: bool,
}

/// Dense Akamai-like placement: one or more shared FEs in *every* metro,
/// plus campus-colocated FEs in university metros.
///
/// Deterministic in `seed`.
pub fn dense_edge(seed: u64) -> Vec<FeSite> {
    let mut rng = Rng::from_seed_and_name(seed, "nettopo/dense_edge");
    let scatter = Dist::Normal {
        mean: 0.0,
        std: 8.0,
    };
    let mut out = Vec::new();
    for metro in WORLD_METROS {
        // Every metro gets a city-core cache cluster.
        let n_core = 1 + (metro.weight / 1.5) as usize;
        for k in 0..n_core {
            let pt = metro
                .pt
                .offset_miles(scatter.sample(&mut rng), scatter.sample(&mut rng));
            out.push(FeSite {
                id: out.len(),
                name: format!("akamai-{}-{}", metro.name.replace(' ', ""), k),
                pt,
                shared_tenancy: true,
                campus_colocated: false,
            });
        }
        // University metros additionally get an on-campus cache.
        if metro.university_hub {
            let pt = metro.pt.offset_miles(
                scatter.sample(&mut rng) * 0.3,
                scatter.sample(&mut rng) * 0.3,
            );
            out.push(FeSite {
                id: out.len(),
                name: format!("akamai-campus-{}", metro.name.replace(' ', "")),
                pt,
                shared_tenancy: true,
                campus_colocated: true,
            });
        }
    }
    out
}

/// Sparse Google-like placement: one dedicated FE POP in each of the
/// `pop_count` highest-weight metros.
///
/// Deterministic in `seed`.
pub fn sparse_pop(seed: u64, pop_count: usize) -> Vec<FeSite> {
    let mut rng = Rng::from_seed_and_name(seed, "nettopo/sparse_pop");
    let scatter = Dist::Normal {
        mean: 0.0,
        std: 5.0,
    };
    top_metros(pop_count)
        .into_iter()
        .enumerate()
        .map(|(id, metro)| FeSite {
            id,
            name: format!("gfe-{}", metro.name.replace(' ', "")),
            pt: metro
                .pt
                .offset_miles(scatter.sample(&mut rng), scatter.sample(&mut rng)),
            shared_tenancy: false,
            campus_colocated: false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::nearest;
    use crate::vantage::{planetlab_like, VantageConfig};
    use std::collections::BTreeSet;

    /// Each vantage's default FE in `fleet`, its nearest, as `(index, miles)`.
    fn default_fes(seed: u64, fleet: &[FeSite]) -> Vec<(usize, f64)> {
        planetlab_like(seed, &VantageConfig::default())
            .iter()
            .map(|v| nearest(&v.pt, fleet, |f| f.pt).unwrap())
            .collect()
    }

    #[test]
    fn dense_fleet_is_much_larger_than_sparse() {
        let dense = dense_edge(1);
        let sparse = sparse_pop(1, 25);
        assert!(
            dense.len() > 3 * sparse.len(),
            "dense {} vs sparse {}",
            dense.len(),
            sparse.len()
        );
        assert!(dense.len() > 100);
        assert_eq!(sparse.len(), 25);
    }

    #[test]
    fn tenancy_flags() {
        assert!(dense_edge(1).iter().all(|f| f.shared_tenancy));
        assert!(sparse_pop(1, 10).iter().all(|f| !f.shared_tenancy));
        assert!(dense_edge(1).iter().any(|f| f.campus_colocated));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = dense_edge(9);
        let b = dense_edge(9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pt, y.pt);
        }
    }

    #[test]
    fn ids_are_dense() {
        for (i, f) in dense_edge(2).iter().enumerate() {
            assert_eq!(f.id, i);
        }
        for (i, f) in sparse_pop(2, 12).iter().enumerate() {
            assert_eq!(f.id, i);
        }
    }

    #[test]
    fn vantages_are_closer_to_dense_fleet() {
        // The geometric core of Fig. 6: median vantage→nearest-FE distance
        // must be clearly smaller for the dense (Akamai/Bing) fleet.
        let miles = |fleet: &[FeSite]| -> Vec<f64> {
            default_fes(5, fleet).iter().map(|&(_, d)| d).collect()
        };
        let mut d_dense = miles(&dense_edge(5));
        let mut d_sparse = miles(&sparse_pop(5, 25));
        d_dense.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d_sparse.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med_dense = d_dense[d_dense.len() / 2];
        let med_sparse = d_sparse[d_sparse.len() / 2];
        assert!(
            med_dense < med_sparse,
            "median dense {med_dense} vs sparse {med_sparse}"
        );
    }

    #[test]
    fn every_vantage_maps_to_a_fleet_member() {
        let fleet = sparse_pop(1, 14);
        assert!(default_fes(1, &fleet)
            .iter()
            .all(|&(fe, _)| fe < fleet.len()));
    }

    #[test]
    fn dense_fleet_halves_the_mean_distance() {
        let mean = |fleet: &[FeSite]| {
            let picks = default_fes(2, fleet);
            picks.iter().map(|&(_, d)| d).sum::<f64>() / picks.len() as f64
        };
        assert!(mean(&dense_edge(2)) < mean(&sparse_pop(2, 14)) / 2.0);
    }

    #[test]
    fn the_pick_is_no_farther_than_any_fe() {
        let vantages = planetlab_like(3, &VantageConfig::default());
        let fleet = sparse_pop(3, 10);
        for v in &vantages {
            let (fe, miles) = nearest(&v.pt, &fleet, |f| f.pt).unwrap();
            assert_eq!(miles, v.pt.distance_miles(&fleet[fe].pt));
            for other in &fleet {
                assert!(v.pt.distance_miles(&other.pt) >= miles - 1e-9);
            }
        }
    }

    #[test]
    fn multiple_fes_serve_a_global_population() {
        let used: BTreeSet<usize> = default_fes(4, &sparse_pop(4, 14))
            .iter()
            .map(|&(fe, _)| fe)
            .collect();
        assert!(used.len() >= 8, "used {} FEs", used.len());
    }
}
