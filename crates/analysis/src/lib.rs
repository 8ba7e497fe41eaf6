//! Measurement and reporting toolkit for the evaluation (section 6).
//!
//! * [`cdf`] — empirical CDFs in the paper's "number of nodes with ≤ x"
//!   style (figures 8, 10, 11) and their quantiles.
//! * [`freshness`] — per-(src, dst) route-freshness statistics sampled
//!   periodically: median / average / 97th percentile / max
//!   (figures 12–14).
//! * [`theory`] — the paper's closed-form bandwidth formulas, their
//!   crossover point and the capacity at a bandwidth budget (figure 9's
//!   theory series and section 6.1's headline numbers).
//! * [`report`] — tiny CSV + aligned-table writers used by every
//!   experiment binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod freshness;
pub mod report;
pub mod theory;

pub use cdf::Cdf;
pub use freshness::{FreshnessStats, FreshnessTracker};
pub use report::{write_csv, Table};
