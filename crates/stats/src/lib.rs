//! # stats — the statistics toolkit behind the measurement analysis
//!
//! Everything the paper's analysis pipeline needs, implemented from
//! scratch and dependency-free:
//!
//! * [`mod@quantile`] — medians, arbitrary quantiles, mean/variance summaries;
//! * [`moving`] — the moving median (window 10) used for Fig. 3;
//! * [`ecdf`] — empirical CDFs (Fig. 6);
//! * [`boxplot`] — five-number summaries for the per-vantage box plots of
//!   Fig. 8;
//! * [`regress`] — ordinary least squares (the Fig. 9 fit) and the robust
//!   Theil–Sen estimator used to cross-check it;
//! * [`cluster`] — one-dimensional temporal gap clustering for the
//!   packet-event clusters of Fig. 4;
//! * [`ks`] — two-sample Kolmogorov–Smirnov distance for the
//!   "do FE servers cache results?" experiment of Sec. 3;
//! * [`hist`] — fixed-width histograms used by reports;
//! * [`streaming`] — mergeable online reducers (Welford moments,
//!   exact-when-small/sketch-when-huge quantiles) backing the
//!   bounded-memory campaign result pipeline.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod boxplot;
pub mod cluster;
pub mod ecdf;
pub mod hist;
pub mod ks;
pub mod moving;
pub mod quantile;
pub mod regress;
pub mod streaming;

pub use boxplot::BoxSummary;
pub use cluster::gap_clusters;
pub use ecdf::Ecdf;
pub use hist::Histogram;
pub use ks::ks_distance;
pub use moving::moving_median;
pub use quantile::{mean, median, quantile, Summary};
pub use regress::{ols, pearson, theil_sen, Fit};
pub use streaming::{MeanAcc, QuantileAcc, SummaryAcc, Welford};
