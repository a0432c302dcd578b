//! # searchbe — the back-end search-service model
//!
//! The paper treats the back-end data center as a black box that, given a
//! query, produces a response after a processing time `Tproc` — but its
//! experiments deliberately vary the *inputs* to that black box: keyword
//! popularity, granularity (refined multi-word queries) and complexity
//! (long queries, uncorrelated keyword mixtures), 40,000-keyword corpora
//! for the caching probes, and per-letter "search as you type" queries.
//! This crate models all of that:
//!
//! * [`keywords`] — keyword classes and synthetic corpora (per keyword
//!   its class, popularity rank and query length);
//! * [`proctime`] — per-service `Tproc` distributions, keyword-class
//!   multipliers and a slowly varying load process;
//! * [`response`] — the message format ([`response::RequestSpec`] going
//!   up, the two-part [`response::ResponsePlan`] coming down, as sizes
//!   and content ids) and page composition: the static portion
//!   (HTTP/HTML head, CSS, menu bar — same bytes for every query) and
//!   the keyword-dependent dynamic portion;
//! * [`datacenter`] — the BE server: draws `Tproc`, composes the
//!   response plan, tracks load, and discounts the correlated
//!   follow-up queries of "search as you type" (Sec. 6).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod datacenter;
pub mod keywords;
pub mod proctime;
pub mod response;

pub use datacenter::BeDataCenter;
pub use keywords::{Keyword, KeywordClass, KeywordCorpus};
pub use proctime::{BackendProfile, LoadProcess};
pub use response::PageComposer;
