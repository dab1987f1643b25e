//! Dense vector storage and distance primitives for the GK-means reproduction.
//!
//! This crate is the lowest-level substrate shared by every other crate in the
//! workspace.  It provides:
//!
//! * [`VectorSet`] — an owned, row-major `n × d` matrix of `f32` values, the
//!   canonical in-memory representation of a descriptor collection such as
//!   SIFT1M or VLAD10M (Tab. 1 of the paper).
//! * [`distance`] — squared-Euclidean and dot-product kernels.  All
//!   clustering algorithms in the paper operate in the ℓ² space, so squared
//!   Euclidean is the one metric of the workspace.
//! * [`kernels`] — the SIMD engine behind [`distance`]: runtime-dispatched
//!   AVX2+FMA / NEON / scalar implementations and the batched one-to-many
//!   API used by every hot loop.
//! * [`norms`] — pre-computed squared norms that let the assignment step use
//!   the `‖x-c‖² = ‖x‖² - 2·x·c + ‖c‖²` expansion.
//! * [`parallel`] — the deterministic block executor behind the opt-in
//!   threaded epoch engines: a persistent worker pool (spawned lazily once
//!   per process, parked between rounds) running fixed block boundaries with
//!   results merged in block order — bit-identical output at any thread
//!   count.
//! * [`io`] — readers and writers for the TexMex `fvecs`/`ivecs`/`bvecs`
//!   formats used to distribute the paper's datasets, plus the checksummed
//!   GKSC sectioned container with atomic saves that every file the
//!   workspace writes uses; corruption surfaces as the typed
//!   [`error::StoreError`] taxonomy.
//! * [`checksum`] — hand-rolled CRC-32C (SSE4.2 / ARMv8-CRC / slicing-by-8)
//!   behind the same one-time runtime dispatch as [`kernels`].
//! * [`wal`] — the GKSL write-ahead log: CRC-32C-per-record mutation
//!   journalling with fsync-acknowledged appends, torn-tail recovery, and
//!   checkpoint truncation — the durability substrate of the mutable index.
//! * [`fault`] — fault-injection adapters ([`fault::FaultyReader`] /
//!   [`fault::FaultyWriter`]) used by the robustness test suites.
//! * [`sample`] — reproducible sub-sampling and shuffling helpers used by the
//!   workload generators and the mini-batch baseline.
//!
//! # Example
//!
//! ```
//! use vecstore::{VectorSet, distance::l2_sq};
//!
//! let data = VectorSet::from_rows(vec![vec![0.0, 0.0], vec![3.0, 4.0]]).unwrap();
//! assert_eq!(data.len(), 2);
//! assert_eq!(data.dim(), 2);
//! assert_eq!(l2_sq(data.row(0), data.row(1)), 25.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checksum;
pub mod distance;
pub mod error;
pub mod fault;
pub mod io;
pub mod kernels;
pub mod matrix;
pub mod norms;
pub mod parallel;
pub mod sample;
pub mod wal;

pub use error::{Error, Result, StoreError};
pub use matrix::VectorSet;
pub use norms::Norms;
