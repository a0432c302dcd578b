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
//! [`dense_edge`] and [`sparse_pop`] generate the two fleets. Fig. 6's
//! headline numbers (>80 % of vantages within 20 ms of a Bing FE vs ~60 %
//! for Google) emerge from these placements plus the path model.

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

/// The FE nearest to a point, returned as `(index, miles)`.
pub fn nearest_fe(pt: &GeoPoint, fleet: &[FeSite]) -> Option<(usize, f64)> {
    crate::geo::nearest(pt, fleet, |f| f.pt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vantage::{planetlab_like, VantageConfig};

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
        let vantages = planetlab_like(5, &VantageConfig::default());
        let dense = dense_edge(5);
        let sparse = sparse_pop(5, 25);
        let mut d_dense: Vec<f64> = vantages
            .iter()
            .map(|v| nearest_fe(&v.pt, &dense).unwrap().1)
            .collect();
        let mut d_sparse: Vec<f64> = vantages
            .iter()
            .map(|v| nearest_fe(&v.pt, &sparse).unwrap().1)
            .collect();
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
    fn nearest_fe_empty_fleet() {
        let p = GeoPoint::new(0.0, 0.0);
        assert!(nearest_fe(&p, &[]).is_none());
    }
}
