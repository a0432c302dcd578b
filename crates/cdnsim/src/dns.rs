//! Client → front-end mapping.
//!
//! The paper's Dataset A uses "whatever server IP address the DNS
//! resolution returns to the client" — for both Akamai and Google that is
//! overwhelmingly the geographically/topologically nearest front end.
//! [`DnsMap::nearest`] precomputes that assignment. Per-resolution
//! refinements (TTL-cached geo answers, load-aware selection) are the
//! strategies of [`Mapper`](crate::mapping::Mapper).

use nettopo::geo::GeoPoint;
use nettopo::placement::{nearest_fe, FeSite};

/// A precomputed client → default-FE assignment.
#[derive(Clone, Debug)]
pub struct DnsMap {
    assignment: Vec<usize>,
}

impl DnsMap {
    /// Maps every client location to its nearest FE in `fleet`.
    /// Panics on an empty fleet.
    pub fn nearest(clients: &[GeoPoint], fleet: &[FeSite]) -> DnsMap {
        assert!(!fleet.is_empty(), "DnsMap over empty FE fleet");
        let assignment = clients
            .iter()
            .map(|pt| nearest_fe(pt, fleet).unwrap().0)
            .collect();
        DnsMap { assignment }
    }

    /// The default FE index for a client.
    pub fn fe_of(&self, client: usize) -> usize {
        self.assignment[client]
    }

    /// Number of clients mapped.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when no clients were mapped.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettopo::placement::{dense_edge, sparse_pop};
    use nettopo::vantage::{planetlab_like, VantageConfig};
    use std::collections::BTreeSet;

    #[test]
    fn maps_every_client() {
        let v = planetlab_like(1, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let fleet = sparse_pop(1, 14);
        let map = DnsMap::nearest(&pts, &fleet);
        assert_eq!(map.len(), pts.len());
        assert!(!map.is_empty());
        for i in 0..map.len() {
            assert!(map.fe_of(i) < fleet.len());
        }
    }

    #[test]
    fn dense_fleet_gives_shorter_distances() {
        let v = planetlab_like(2, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let mean = |fleet: &[FeSite]| {
            let map = DnsMap::nearest(&pts, fleet);
            let total: f64 = pts
                .iter()
                .enumerate()
                .map(|(i, pt)| pt.distance_miles(&fleet[map.fe_of(i)].pt))
                .sum();
            total / pts.len() as f64
        };
        assert!(mean(&dense_edge(2)) < mean(&sparse_pop(2, 14)) / 2.0);
    }

    #[test]
    fn assignment_is_actually_nearest() {
        let v = planetlab_like(3, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let fleet = sparse_pop(3, 10);
        let map = DnsMap::nearest(&pts, &fleet);
        for (i, pt) in pts.iter().enumerate() {
            let assigned = pt.distance_miles(&fleet[map.fe_of(i)].pt);
            for fe in &fleet {
                assert!(pt.distance_miles(&fe.pt) >= assigned - 1e-9);
            }
        }
    }

    #[test]
    fn multiple_fes_serve_a_global_population() {
        let v = planetlab_like(4, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let map = DnsMap::nearest(&pts, &sparse_pop(4, 14));
        let used: BTreeSet<usize> = (0..map.len()).map(|i| map.fe_of(i)).collect();
        assert!(used.len() >= 8, "used {} FEs", used.len());
    }
}
