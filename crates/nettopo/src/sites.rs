//! Back-end data-center site catalogues.
//!
//! The paper (Sec. 5, refs \[1\] and \[2\]) uses published lists of Google
//! and Microsoft data-center locations to correlate `Tdynamic` with the
//! FE↔BE distance. These are the 2011-era sites relevant to that
//! analysis. The Fig. 9 regression singles out the Bing data center in
//! Virginia and Google's Lenoir, North Carolina site, so each list puts
//! that site first: it is BE site 0 of its service.

use crate::geo::GeoPoint;

/// A back-end data-center site.
#[derive(Clone, Copy, Debug)]
pub struct BeSite {
    /// Site name.
    pub name: &'static str,
    /// Location.
    pub pt: GeoPoint,
}

const fn s(name: &'static str, lat: f64, lon: f64) -> BeSite {
    BeSite {
        name,
        pt: GeoPoint {
            lat_deg: lat,
            lon_deg: lon,
        },
    }
}

/// Google data-center sites (2011-era, from the paper's ref \[1\]).
pub const GOOGLE_BE_SITES: &[BeSite] = &[
    s("Lenoir NC", 35.9140, -81.5390),
    s("The Dalles OR", 45.5946, -121.1787),
    s("Council Bluffs IA", 41.2619, -95.8608),
    s("Berkeley County SC", 33.1960, -80.0131),
    s("Mayes County OK", 36.3020, -95.3110),
    s("Douglas County GA", 33.7515, -84.7477),
    s("Saint-Ghislain BE", 50.4542, 3.8188),
    s("Hamina FI", 60.5693, 27.1878),
];

/// Microsoft (Bing) data-center sites (2011-era, from the paper's
/// ref \[2\]).
pub const BING_BE_SITES: &[BeSite] = &[
    s("Boydton VA", 36.6676, -78.3875),
    s("Chicago IL", 41.8781, -87.6298),
    s("San Antonio TX", 29.4241, -98.4936),
    s("Quincy WA", 47.2343, -119.8526),
    s("Dublin IE", 53.3498, -6.2603),
    s("Amsterdam NL", 52.3676, 4.9041),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_lists_nonempty_and_valid() {
        for site in GOOGLE_BE_SITES.iter().chain(BING_BE_SITES) {
            assert!((-90.0..=90.0).contains(&site.pt.lat_deg), "{}", site.name);
            assert!((-180.0..=180.0).contains(&site.pt.lon_deg), "{}", site.name);
        }
        assert!(GOOGLE_BE_SITES.len() >= 6);
        assert!(BING_BE_SITES.len() >= 4);
    }

    #[test]
    fn fig9_sites_come_first() {
        assert_eq!(BING_BE_SITES[0].name, "Boydton VA");
        assert_eq!(GOOGLE_BE_SITES[0].name, "Lenoir NC");
        // Both regression anchors are in the US Southeast; the paper's
        // distance axes (0-400/0-500 miles) only make sense if nearby FEs
        // exist at small distances.
        let d = BING_BE_SITES[0].pt.distance_miles(&GOOGLE_BE_SITES[0].pt);
        assert!(d < 400.0, "distance {d}");
    }

    #[test]
    fn names_unique_within_each_list() {
        for list in [GOOGLE_BE_SITES, BING_BE_SITES] {
            let mut names: Vec<&str> = list.iter().map(|s| s.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), list.len());
        }
    }
}
