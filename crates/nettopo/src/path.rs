//! Per-path latency / jitter / loss / bandwidth models.
//!
//! A path's fixed one-way delay is derived from great-circle distance via
//! a *route inflation* factor (real routes are longer than geodesics) and
//! the speed of light in fiber, plus a fixed per-path base (first/last
//! mile, switching). On top of that, every packet draws an independent
//! jitter term and an independent loss coin per direction.
//!
//! Profiles capture the path classes the paper distinguishes:
//!
//! * campus access to a nearby FE (the PlanetLab default — fast, clean);
//! * residential and wireless access (Sec. 6's discussion of loss and of
//!   DSL latency);
//! * FE↔BE over the **public Internet** (Bing→its data centers through
//!   Akamai: more inflation, jitter and loss);
//! * FE↔BE over a **private WAN** (Google's internal network: "a
//!   dedicated connection between FE and BE servers via 'internal'
//!   network usually provides better connection", Sec. 4.2).

use crate::geo::GeoPoint;
use simcore::dist::Dist;
use simcore::time::SimDuration;

/// One-way propagation delay per great-circle mile in fiber
/// (≈ 200,000 km/s → ≈ 8.2 µs per mile).
pub const FIBER_MS_PER_MILE_OWD: f64 = 0.0082;

/// A path class: how geography translates into packet behaviour.
#[derive(Clone, Debug)]
pub struct PathProfile {
    /// Profile name (for reports).
    pub name: &'static str,
    /// Route stretch relative to the great circle (≥ 1).
    pub inflation: f64,
    /// Fixed base one-way delay independent of distance, in ms
    /// (last-mile, switching, interleaving).
    pub base_owd_ms: f64,
    /// Per-packet extra one-way delay, in ms (drawn independently per
    /// packet; non-negative).
    pub jitter_ms: Dist,
    /// Per-packet, per-direction loss probability.
    pub loss: f64,
    /// Bottleneck bandwidth in Mbit/s (drives serialization delay).
    pub bw_mbps: f64,
}

impl PathProfile {
    /// Campus/university access network (the PlanetLab population).
    pub fn campus_access() -> PathProfile {
        PathProfile {
            name: "campus-access",
            inflation: 2.2,
            base_owd_ms: 1.2,
            jitter_ms: Dist::TruncatedBelow {
                lo: 0.0,
                inner: Box::new(Dist::Exponential { mean: 0.15 }),
            },
            loss: 0.00005,
            bw_mbps: 100.0,
        }
    }

    /// Residential DSL/cable access: ~25–30 ms of interleaving latency on
    /// the last mile (Maier et al., IMC'09, cited in the reviews).
    pub fn residential_access() -> PathProfile {
        PathProfile {
            name: "residential-access",
            inflation: 1.7,
            base_owd_ms: 14.0,
            jitter_ms: Dist::TruncatedBelow {
                lo: 0.0,
                inner: Box::new(Dist::Exponential { mean: 1.5 }),
            },
            loss: 0.0008,
            bw_mbps: 16.0,
        }
    }

    /// Wireless/WiFi last hop: the Sec. 6 loss-tradeoff scenario.
    pub fn wireless_access() -> PathProfile {
        PathProfile {
            name: "wireless-access",
            inflation: 1.7,
            base_owd_ms: 4.0,
            jitter_ms: Dist::TruncatedBelow {
                lo: 0.0,
                inner: Box::new(Dist::Exponential { mean: 2.0 }),
            },
            loss: 0.01,
            bw_mbps: 25.0,
        }
    }

    /// FE↔BE over public Internet transit (the Akamai→Bing leg).
    pub fn public_transit() -> PathProfile {
        PathProfile {
            name: "public-transit",
            inflation: 2.0,
            base_owd_ms: 1.5,
            jitter_ms: Dist::TruncatedBelow {
                lo: 0.0,
                inner: Box::new(Dist::LogNormal {
                    mu: -0.7, // median ≈ 0.5 ms
                    sigma: 1.0,
                }),
            },
            loss: 0.0015,
            bw_mbps: 400.0,
        }
    }

    /// FE↔BE over a private WAN (the Google-internal leg).
    pub fn private_wan() -> PathProfile {
        PathProfile {
            name: "private-wan",
            inflation: 1.3,
            base_owd_ms: 0.5,
            jitter_ms: Dist::TruncatedBelow {
                lo: 0.0,
                inner: Box::new(Dist::Exponential { mean: 0.08 }),
            },
            loss: 0.00002,
            bw_mbps: 2000.0,
        }
    }
}

/// A concrete path between two endpoints: the profile applied to their
/// geography. The packet simulator (`tcpsim`) runs it as is: every
/// connection carries one, and each packet pays its serialization, base
/// delay and a jitter draw, or loses its loss coin.
#[derive(Clone, Debug)]
pub struct PathModel {
    /// Fixed one-way delay (propagation + base), in ms.
    pub base_owd_ms: f64,
    /// Per-packet jitter distribution (one-way extra delay, ms).
    pub jitter_ms: Dist,
    /// Per-packet, per-direction loss probability.
    pub loss: f64,
    /// Bottleneck bandwidth in Mbit/s.
    pub bw_mbps: f64,
    /// The great-circle distance this model was derived from (miles).
    pub distance_miles: f64,
}

impl PathModel {
    /// Builds the path between `a` and `b` under `profile`.
    pub fn between(a: &GeoPoint, b: &GeoPoint, profile: &PathProfile) -> PathModel {
        let distance_miles = a.distance_miles(b);
        let prop = distance_miles * profile.inflation * FIBER_MS_PER_MILE_OWD;
        PathModel {
            base_owd_ms: profile.base_owd_ms + prop,
            jitter_ms: profile.jitter_ms.clone(),
            loss: profile.loss,
            bw_mbps: profile.bw_mbps,
            distance_miles,
        }
    }

    /// An ideal loss-free path with the given RTT and ample bandwidth —
    /// the workhorse of unit tests.
    pub fn ideal(rtt_ms: f64) -> PathModel {
        PathModel {
            base_owd_ms: rtt_ms / 2.0,
            jitter_ms: Dist::Constant(0.0),
            loss: 0.0,
            bw_mbps: 10_000.0,
            distance_miles: 0.0,
        }
    }

    /// Same as [`PathModel::ideal`] but with a loss rate.
    pub fn lossy(rtt_ms: f64, loss: f64) -> PathModel {
        PathModel {
            loss,
            ..PathModel::ideal(rtt_ms)
        }
    }

    /// Nominal RTT (2 × fixed one-way delay, ignoring jitter and
    /// serialization).
    pub fn nominal_rtt_ms(&self) -> f64 {
        2.0 * self.base_owd_ms
    }

    /// One-way serialization delay of a packet of `bytes`.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        SimDuration::from_millis_f64((bytes as f64 * 8.0) / (self.bw_mbps * 1000.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msp() -> GeoPoint {
        GeoPoint::new(44.9778, -93.2650)
    }
    fn nyc() -> GeoPoint {
        GeoPoint::new(40.7128, -74.0060)
    }

    #[test]
    fn propagation_scales_with_distance() {
        let prof = PathProfile::campus_access();
        let near = PathModel::between(&msp(), &msp().offset_miles(10.0, 0.0), &prof);
        let far = PathModel::between(&msp(), &nyc(), &prof);
        assert!(far.base_owd_ms > near.base_owd_ms + 5.0);
        assert!(far.distance_miles > 900.0);
    }

    #[test]
    fn transcontinental_rtt_is_plausible() {
        // MSP→NYC over campus profile: ~1,020 miles × 2.2 × 0.0082 × 2
        // ≈ 37 ms RTT + base — the right ballpark for a 2011 regional
        // Internet path.
        let p = PathModel::between(&msp(), &nyc(), &PathProfile::campus_access());
        let rtt = p.nominal_rtt_ms();
        assert!((30.0..48.0).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn private_wan_beats_public_transit() {
        let a = msp();
        let b = nyc();
        let pub_path = PathModel::between(&a, &b, &PathProfile::public_transit());
        let wan_path = PathModel::between(&a, &b, &PathProfile::private_wan());
        assert!(wan_path.base_owd_ms < pub_path.base_owd_ms);
        assert!(wan_path.loss < pub_path.loss);
        assert!(wan_path.bw_mbps > pub_path.bw_mbps);
    }

    #[test]
    fn wireless_is_lossy() {
        assert!(PathProfile::wireless_access().loss > 100.0 * PathProfile::campus_access().loss);
    }

    #[test]
    fn residential_adds_interleaving_latency() {
        let res = PathProfile::residential_access();
        let cam = PathProfile::campus_access();
        assert!(res.base_owd_ms > cam.base_owd_ms + 10.0);
    }
}
