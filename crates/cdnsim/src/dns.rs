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
    distance_miles: Vec<f64>,
}

impl DnsMap {
    /// Maps every client location to its nearest FE in `fleet`.
    /// Panics on an empty fleet.
    pub fn nearest(clients: &[GeoPoint], fleet: &[FeSite]) -> DnsMap {
        assert!(!fleet.is_empty(), "DnsMap over empty FE fleet");
        let mut assignment = Vec::with_capacity(clients.len());
        let mut distance_miles = Vec::with_capacity(clients.len());
        for pt in clients {
            let (idx, d) = nearest_fe(pt, fleet).unwrap();
            assignment.push(idx);
            distance_miles.push(d);
        }
        DnsMap {
            assignment,
            distance_miles,
        }
    }

    /// The default FE index for a client.
    pub fn fe_of(&self, client: usize) -> usize {
        self.assignment[client]
    }

    /// Distance in miles from a client to its default FE.
    pub fn distance_of(&self, client: usize) -> f64 {
        self.distance_miles[client]
    }

    /// Number of clients mapped.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when no clients were mapped.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of distinct FEs actually used as a default.
    pub fn distinct_fes(&self) -> usize {
        let mut v = self.assignment.clone();
        v.sort_unstable();
        v.dedup();
        v.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettopo::placement::{dense_edge, sparse_pop};
    use nettopo::vantage::{planetlab_like, VantageConfig};

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
            assert!(map.distance_of(i) >= 0.0);
        }
    }

    #[test]
    fn dense_fleet_gives_shorter_distances() {
        let v = planetlab_like(2, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let dense = DnsMap::nearest(&pts, &dense_edge(2));
        let sparse = DnsMap::nearest(&pts, &sparse_pop(2, 14));
        let mean =
            |m: &DnsMap| (0..m.len()).map(|i| m.distance_of(i)).sum::<f64>() / m.len() as f64;
        assert!(mean(&dense) < mean(&sparse) / 2.0);
    }

    #[test]
    fn assignment_is_actually_nearest() {
        let v = planetlab_like(3, &VantageConfig::default());
        let pts: Vec<GeoPoint> = v.iter().map(|x| x.pt).collect();
        let fleet = sparse_pop(3, 10);
        let map = DnsMap::nearest(&pts, &fleet);
        for (i, pt) in pts.iter().enumerate() {
            let assigned = map.distance_of(i);
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
        assert!(map.distinct_fes() >= 8, "used {} FEs", map.distinct_fes());
    }
}
