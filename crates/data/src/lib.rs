//! # aware-data
//!
//! In-memory columnar data-exploration engine: the substrate that plays the
//! role of Vizdom's backend in the AWARE reproduction (*Zhao et al., SIGMOD
//! 2017*). Interactive data exploration in the paper is a loop of
//! *filter → histogram → compare*; this crate provides exactly those
//! primitives, plus the synthetic census generator that substitutes for the
//! UCI Adult dataset (see DESIGN.md §4 for the substitution rationale).
//!
//! * [`table`] — immutable, typed, column-oriented tables.
//! * [`column`](mod@column) — `Int64` / `Float64` / `Bool` / dictionary-encoded
//!   `Categorical` column storage.
//! * [`bitmap`] — packed selection vectors with fast boolean algebra; every
//!   filter evaluates to one of these.
//! * [`cache`] — the shared per-dataset evaluation cache: canonical
//!   predicate fingerprints, LRU-bounded selection bitmaps with
//!   incremental filter-chain evaluation, memoized per-attribute
//!   invariants (global histograms, bin edges, proportions).
//! * [`predicate`] — the filter AST users build by dragging visualizations
//!   together (equality, ranges, negation, conjunction, disjunction).
//! * [`hist`] — histogram/group-by computation over selections, the
//!   visualization primitive of the paper's Figure 1, and the per-column
//!   bucket index (one bitmap per bucket) that answers it by AND +
//!   popcount — and, through a numeric column's rank bit-slices, answers
//!   range filters by word-parallel compare.
//! * [`csv`] — minimal CSV reader/writer with schema inference.
//! * [`sample`] — seeded down-sampling, holdout splits, and independent
//!   column permutation (the paper's "randomized Census" null workload).
//! * [`census`] — seeded generative model producing an Adult-like census
//!   table with *known* ground-truth dependencies.
//!
//! ## Where `unsafe` lives
//!
//! Only in the kernel dispatch of [`bitmap`] (popcount) and of the rank
//! bit-slice compare under [`hist`]. Each of those kernels is compiled
//! twice from one source: as is, and inside a
//! `#[target_feature(enable = "avx2,popcnt")]` function. Calling the
//! second build is `unsafe` because it needs those CPU features, so each
//! kernel makes that call only after `is_x86_feature_detected!` reports
//! both, under a `// SAFETY:` comment saying so. Otherwise (another
//! architecture, an older CPU) the portable build runs. Both builds return
//! identical bitmaps and counts; there is no setting for the choice.
//!
//! ## Example
//!
//! ```
//! use aware_data::census::CensusGenerator;
//! use aware_data::predicate::{Predicate, CmpOp};
//! use aware_data::value::Value;
//! use aware_data::hist::histogram;
//!
//! let table = CensusGenerator::new(42).generate(1_000);
//! let high_earners = Predicate::cmp("salary_over_50k", CmpOp::Eq, Value::from(true))
//!     .eval(&table)
//!     .unwrap();
//! let by_sex = histogram(&table, "sex", Some(&high_earners)).unwrap();
//! assert_eq!(by_sex.total(), high_earners.count_ones() as u64);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod agg;
pub mod bitmap;
pub mod cache;
pub mod census;
pub mod column;
pub mod crosstab;
pub mod csv;
pub mod error;
pub mod hash;
pub mod hist;
pub mod predicate;
mod rank;
pub mod sample;
pub mod table;
pub mod value;

pub use error::DataError;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, DataError>;
