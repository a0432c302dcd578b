//! # nettopo — network geography and path models
//!
//! The measurement study ran on the 2011 Internet: ~200–250 PlanetLab
//! vantage points (campus-biased), Akamai's dense edge fleet serving Bing,
//! Google's own sparser front-end POPs, and a handful of back-end data
//! centers. This crate rebuilds that world synthetically:
//!
//! * [`geo`] — coordinates, great-circle distances, and
//!   [`geo::nearest`], the one nearest-site search (a client's default
//!   FE, an FE's BE, a no-split client's BE);
//! * [`metro`] — an embedded catalogue of world metro areas with
//!   PlanetLab-era weighting (North America / Europe heavy);
//! * [`vantage`] — PlanetLab-like vantage-point generation (clustered
//!   around university metros, mostly well-connected campus access);
//! * [`placement`] — front-end placement strategies: `dense_edge`
//!   (Akamai-like, deployed into nearly every metro and into campus
//!   networks) and `sparse_pop` (Google-like, major POPs only);
//! * [`sites`] — 2011-era back-end data-center site lists for both
//!   services (from the paper's refs \[1\] and \[2\]);
//! * [`path`] — per-path latency/jitter/loss/bandwidth models derived
//!   from geography plus a *profile* (public transit, private WAN,
//!   campus access, wireless access);
//! * [`faults`] — scripted fault schedules ([`FaultPlan`]): FE/BE
//!   outages, brownouts, persistent-connection drops and burst-loss
//!   episodes, consumed by the service layer's failure-recovery
//!   machinery, and the Gilbert–Elliott chain of a burst-loss episode
//!   ([`BurstLossParams::advance`]).
//!
//! This is the network model the packet simulator runs: `tcpsim`
//! depends on this crate and opens every connection over a
//! [`PathModel`], and its burst-loss faults call
//! [`BurstLossParams::advance`] per packet. This crate knows nothing of
//! TCP. Everything is deterministic given a seed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod faults;
pub mod geo;
pub mod metro;
pub mod path;
pub mod placement;
pub mod sites;
pub mod vantage;

pub use faults::{BurstLossParams, FaultKind, FaultPlan, FaultWindow};
pub use geo::GeoPoint;
pub use metro::{Metro, Region, WORLD_METROS};
pub use path::{PathModel, PathProfile};
pub use placement::FeSite;
pub use sites::BeSite;
pub use vantage::{AccessKind, Vantage};
