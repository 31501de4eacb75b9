//! Statistics primitives for the `veil` overlay simulator.
//!
//! The paper's evaluation needs two statistics, and this crate holds both:
//!
//! * [`histogram::Histogram`] — dense integer histogram used for degree
//!   distributions (Figure 5 of the paper).
//! * [`timeseries::TimeSeries`] — `(time, value)` series with tail means and
//!   settling times, used for the convergence plots (Figures 8 and 9).
//!
//! # Examples
//!
//! ```
//! use veil_metrics::Histogram;
//!
//! let h: Histogram = [1, 2, 3].into_iter().collect();
//! assert_eq!(h.mean(), 2.0);
//! assert_eq!(h.total(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod timeseries;

pub use histogram::Histogram;
pub use timeseries::TimeSeries;
