//! K-nearest-neighbour graph substrate.
//!
//! A KNN graph stores, for each of the `n` samples, a list of its `κ`
//! (approximate) nearest neighbours together with the squared distances.  It
//! is the central data structure of the paper: GK-means (Alg. 2) consults it
//! to restrict the candidate clusters of a sample, and Alg. 3 constructs it by
//! repeatedly clustering the data.
//!
//! This crate provides:
//!
//! * [`graph::KnnGraph`] and [`graph::NeighborList`] — the graph itself, with
//!   bounded ordered insertion and visited-pair deduplication;
//! * [`brute`] — exact construction by exhaustive comparison (the ground
//!   truth used for recall, Sec. 5.1), run on every core of the workspace's
//!   worker pool because it is `O(n²·d)` and only used for evaluation;
//! * [`random`] — random initial graphs (Alg. 3 line 4);
//! * [`nn_descent`] — an NN-Descent ("KGraph") implementation used for the
//!   "KGraph+GK-means" baseline runs;
//! * [`nsw`] — navigable-small-world incremental construction (Malkov &
//!   Yashunin, ref. \[34\]), the other third-party construction method the
//!   paper compares against;
//! * [`recall`] — graph-vs-ground-truth recall measures;
//! * [`io`] — graph files as checksummed GKSC v2 containers of flat id and
//!   distance arrays, saved atomically.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod brute;
pub mod graph;
pub mod io;
pub mod nn_descent;
pub mod nsw;
pub mod random;
pub mod recall;

pub use graph::{KnnGraph, Neighbor, NeighborList};
pub use nn_descent::NnDescentParams;
pub use nsw::NswParams;
