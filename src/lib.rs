//! # fecdn — Characterizing Roles of Front-end Servers in End-to-End
//! Performance of Dynamic Content Distribution
//!
//! A from-scratch Rust reproduction of Chen, Jain, Adhikari & Zhang's
//! IMC 2011 measurement study, built as a deterministic packet-level
//! simulation of the systems the paper measured live, plus the paper's
//! model-based inference framework as a reusable library.
//!
//! ## What's inside
//!
//! | crate | contents |
//! |---|---|
//! | [`simcore`] | discrete-event engine: virtual time, event queue, PRNG streams, distributions |
//! | [`stats`] | medians, moving median, ECDF, box plots, OLS/Theil–Sen, temporal clustering, KS tests |
//! | [`nettopo`] | world geography, PlanetLab-like vantages, FE placements, BE sites, path models |
//! | [`tcpsim`] | packet-level TCP: handshake, slow start, Reno recovery, RTO, delayed ACKs, tracing |
//! | [`httpsim`] | HTTP request/response size & identity accounting |
//! | [`searchbe`] | back-end search model: keyword classes, `Tproc` distributions, page composition |
//! | [`cdnsim`] | FE servers (split TCP, static cache, load/tenancy), DNS mapping, whole services |
//! | [`capture`] | the tcpdump analogue: session slicing, timeline extraction, content analysis |
//! | [`inference`] | **the paper's contribution**: `Tstatic`/`Tdynamic`/`Tdelta`, fetch bounds, thresholds, factoring |
//! | [`emulator`] | the query emulator and the Dataset A/B experiment designs |
//!
//! ## Quickstart
//!
//! ```
//! use fecdn::prelude::*;
//!
//! // A small shared measurement campaign: vantage points + keywords.
//! let scenario = Scenario::small(42);
//!
//! // Build the Google-like service and issue one query.
//! let mut sim = scenario.google_sim();
//! sim.with(|world, net| {
//!     world.schedule_query(
//!         net,
//!         SimDuration::from_millis(1),
//!         QuerySpec { client: 0, keyword: 3, fixed_fe: None, instant_followup: false },
//!     );
//! });
//!
//! // Run to quiescence; extract the paper's parameters from the
//! // client-side packet trace.
//! let run = run_stream_fed(&mut sim, &Classifier::ByMarker, CollectSink::new(), None);
//! let q = &run.output.queries[0];
//! assert!(q.params.t_dynamic_ms > 0.0);
//!
//! // Eq. (1): the unobservable fetch time is bracketed by observables —
//! // and the simulator knows the truth, so we can check the bracket.
//! let bounds = FetchBounds::from_params(&q.params);
//! assert!(bounds.contains(q.true_fetch_ms.unwrap(), 12.0));
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench/src/claims/`
//! for the per-figure reproductions (`claims <artefact>` runs one).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use capture;
pub use cdnsim;
pub use emulator;
pub use httpsim;
pub use inference;
pub use nettopo;
pub use searchbe;
pub use simcore;
pub use stats;
pub use tcpsim;

/// The common imports for scenario code.
pub mod prelude {
    pub use capture::{Classifier, Timeline};
    pub use cdnsim::{CompletedQuery, QuerySpec, ServiceConfig, ServiceWorld};
    pub use emulator::{run_stream_fed, CollectSink, ProcessedQuery, Scenario};
    pub use inference::{
        caching_verdict, estimate_rtt_threshold, factor_fetch_time, per_group_medians, FetchBounds,
        ModelPrediction, QueryParams,
    };
    pub use simcore::time::{SimDuration, SimTime};
    pub use tcpsim::{End, Marker, Sim};
}
