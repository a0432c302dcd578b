//! # capture — client-side packet-trace analysis
//!
//! The paper's raw material is "detailed TCPdump with full
//! application-layer payloads" collected at every vantage point. This
//! crate is that pipeline's simulator analogue. Given a query session's
//! client capture (a [`tcpsim::Capture`], read in place) it produces
//! the [`Timeline`] of Fig. 2:
//!
//! ```text
//! tb  — first SYN                       t4 — last static-content packet
//! t1  — HTTP GET sent                   t5 — first dynamic-content packet
//! t2  — first ACK of the GET            te — last packet of the response
//! t3  — first static-content packet
//! ```
//!
//! Three static/dynamic classifiers are provided, in decreasing order of
//! privilege:
//!
//! * [`classify::Classifier::ByMarker`] — simulator ground truth (the
//!   analogue of knowing the page layout a priori); used to *validate*
//!   the others;
//! * [`classify::Classifier::ByContent`] — the paper's method: payload
//!   bytes that recur across sessions of *different* queries are static
//!   ([`content::find_static_content_ids`] does the cross-session
//!   analysis);
//! * [`classify::Classifier::ByPush`] — a weaker online heuristic using
//!   PSH flags at application-chunk boundaries.
//!
//! [`cluster_view`] reproduces the Fig. 4 temporal-cluster visualisation
//! of packet events.
//!
//! [`Timeline`]: timeline::Timeline

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod classify;
pub mod cluster_view;
pub mod content;
pub mod dump;
pub mod errors;
pub mod session;
#[cfg(test)]
mod testutil;
pub mod timeline;
pub mod validate;

pub use classify::Classifier;
pub use content::find_static_content_ids;
pub use errors::{SessionError, TimelineError};
pub use session::ClientTrace;
pub use timeline::Timeline;
