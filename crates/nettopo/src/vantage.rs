//! PlanetLab-like vantage-point generation.
//!
//! The paper's clients are 200–250 PlanetLab nodes, i.e. machines inside
//! (or next to) university campus networks, plus "our lab and home
//! machines". Sec. 6 notes the resulting bias: campus access is fast and
//! loss-free, and some Akamai front-ends sit *inside* those campus
//! networks. The generator reproduces that population: vantage points
//! scatter around university metros with mostly `Campus` access, a few
//! `Residential` and `Wireless` nodes standing in for the lab/home
//! machines.

use crate::geo::GeoPoint;
use crate::metro::{university_metros, Metro, Region};
use simcore::dist::Dist;
use simcore::hash::HashMap;
use simcore::rng::Rng;

/// Last-hop access technology of a vantage point, which determines the
/// access-path profile (latency adder, loss) used for its client↔FE path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// University campus network: low latency, negligible loss (the
    /// PlanetLab default).
    Campus,
    /// Residential DSL/cable: interleaving adds tens of ms (cf. the
    /// reviewer comment citing Maier et al., IMC'09).
    Residential,
    /// Wireless/WiFi last hop: moderate latency, non-negligible loss.
    Wireless,
}

/// A measurement client location.
#[derive(Clone, Debug)]
pub struct Vantage {
    /// Stable identifier (index into the generated set).
    pub id: usize,
    /// Human-readable name, e.g. `"planetlab3.Boston"`.
    pub name: String,
    /// Geographic location.
    pub pt: GeoPoint,
    /// Access technology.
    pub access: AccessKind,
    /// The metro the vantage clusters around (index into
    /// [`crate::metro::WORLD_METROS`]-derived university metros list used
    /// at generation time).
    pub metro_name: &'static str,
    /// Continental region (drives regional result personalisation at
    /// the back-end).
    pub region: Region,
}

/// Configuration for vantage generation.
#[derive(Clone, Debug)]
pub struct VantageConfig {
    /// Total number of vantage points (the paper used 200–250).
    pub count: usize,
    /// Fraction with residential access (the "home machines").
    pub residential_frac: f64,
    /// Fraction with wireless access.
    pub wireless_frac: f64,
    /// Scatter (std, miles) of a vantage around its metro center.
    pub scatter_miles: f64,
}

impl Default for VantageConfig {
    fn default() -> Self {
        VantageConfig {
            count: 230,
            residential_frac: 0.04,
            wireless_frac: 0.02,
            scatter_miles: 15.0,
        }
    }
}

/// Generates a PlanetLab-like vantage set. Deterministic in `seed`.
pub fn planetlab_like(seed: u64, cfg: &VantageConfig) -> Vec<Vantage> {
    let metros = university_metros();
    assert!(!metros.is_empty());
    let mut rng = Rng::from_seed_and_name(seed, "nettopo/vantages");
    let scatter = Dist::Normal {
        mean: 0.0,
        std: cfg.scatter_miles,
    };
    // Weighted metro sampling by cumulative weight.
    let total_w: f64 = metros.iter().map(|m| m.weight).sum();
    let pick_metro = |rng: &mut Rng, metros: &[&'static Metro]| -> &'static Metro {
        let mut u = rng.next_f64() * total_w;
        for m in metros {
            u -= m.weight;
            if u <= 0.0 {
                return m;
            }
        }
        metros[metros.len() - 1]
    };

    let mut out = Vec::with_capacity(cfg.count);
    let mut per_metro_counter: HashMap<&str, usize> = HashMap::default();
    for id in 0..cfg.count {
        let metro = pick_metro(&mut rng, &metros);
        let dn = scatter.sample(&mut rng);
        let de = scatter.sample(&mut rng);
        let pt = metro.pt.offset_miles(dn, de);
        let u = rng.next_f64();
        let access = if u < cfg.wireless_frac {
            AccessKind::Wireless
        } else if u < cfg.wireless_frac + cfg.residential_frac {
            AccessKind::Residential
        } else {
            AccessKind::Campus
        };
        let n = per_metro_counter.entry(metro.name).or_insert(0);
        *n += 1;
        out.push(Vantage {
            id,
            name: format!("planetlab{}.{}", n, metro.name.replace(' ', "")),
            pt,
            access,
            metro_name: metro.name,
            region: metro.region,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metro::Region;
    use crate::metro::WORLD_METROS;

    #[test]
    fn generates_requested_count() {
        let v = planetlab_like(1, &VantageConfig::default());
        assert_eq!(v.len(), 230);
        // IDs are dense and ordered.
        for (i, vt) in v.iter().enumerate() {
            assert_eq!(vt.id, i);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = planetlab_like(7, &VantageConfig::default());
        let b = planetlab_like(7, &VantageConfig::default());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.pt, y.pt);
            assert_eq!(x.access, y.access);
        }
        let c = planetlab_like(8, &VantageConfig::default());
        let same = a.iter().zip(&c).filter(|(x, y)| x.pt == y.pt).count();
        assert!(same < a.len() / 2);
    }

    #[test]
    fn mostly_campus_access() {
        let v = planetlab_like(3, &VantageConfig::default());
        let campus = v.iter().filter(|x| x.access == AccessKind::Campus).count();
        assert!(campus as f64 / v.len() as f64 > 0.85);
    }

    #[test]
    fn vantages_stay_near_their_metro() {
        let v = planetlab_like(5, &VantageConfig::default());
        for vt in &v {
            let metro = WORLD_METROS
                .iter()
                .find(|m| m.name == vt.metro_name)
                .unwrap();
            let d = vt.pt.distance_miles(&metro.pt);
            assert!(d < 120.0, "{} is {d} miles from {}", vt.name, metro.name);
        }
    }

    #[test]
    fn population_is_geographically_diverse() {
        let v = planetlab_like(11, &VantageConfig::default());
        let mut regions = std::collections::HashSet::new();
        for vt in &v {
            let metro = WORLD_METROS
                .iter()
                .find(|m| m.name == vt.metro_name)
                .unwrap();
            regions.insert(metro.region);
        }
        assert!(regions.contains(&Region::NorthAmerica));
        assert!(regions.contains(&Region::Europe));
        assert!(regions.len() >= 3, "regions {regions:?}");
    }

    #[test]
    fn region_matches_home_metro() {
        let v = planetlab_like(12, &VantageConfig::default());
        for vt in &v {
            let metro = WORLD_METROS
                .iter()
                .find(|m| m.name == vt.metro_name)
                .unwrap();
            assert_eq!(vt.region, metro.region, "{}", vt.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let v = planetlab_like(13, &VantageConfig::default());
        let mut names: Vec<&String> = v.iter().map(|x| &x.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), v.len());
    }
}
