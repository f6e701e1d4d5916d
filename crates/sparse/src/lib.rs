//! # lcr-sparse
//!
//! Sparse linear-algebra substrate for the lossy-checkpointing reproduction of
//! *"Improving Performance of Iterative Methods by Lossy Checkpointing"*
//! (Tao et al., HPDC 2018).
//!
//! The crate provides everything the iterative solvers in `lcr-solvers`
//! need to operate on the paper's workloads without any external numerical
//! library:
//!
//! * [`CsrMatrix`] — compressed sparse row storage with rayon-parallel
//!   matrix–vector products, transposition, diagonal extraction and
//!   structural queries.
//! * [`CooMatrix`] — triplet builder used by the generators and the
//!   Matrix Market reader.
//! * [`poisson`] — the 3-D (and 2-D/1-D) Poisson stencil matrices used in
//!   the paper's evaluation (Equation 15 of the paper: a 7-point stencil
//!   with `-6` on the diagonal).
//! * [`kkt`] — a synthetic symmetric-indefinite KKT (saddle-point) system
//!   generator standing in for the SuiteSparse `KKT240` matrix used in
//!   Figure 3 of the paper.
//! * [`matrixmarket`] — Matrix Market (`.mtx`) reader/writer so real
//!   SuiteSparse matrices can be dropped in when available.
//! * [`vector`] — dense-vector kernels (axpy, dot, norms) with sequential
//!   and rayon-parallel variants.
//! * [`simd`] — the portable eight-lane vector layer underneath every hot
//!   reduction: chunk-ordered lane accumulators plus a fixed pairwise
//!   horizontal-sum tree, bit-identical to its scalar mirror at any
//!   thread count.
//! * [`kernels`] — fused solver kernels (`spmv_dot`, `axpy2_norm2`,
//!   `residual_norm2`, …) that cut the memory passes of the Krylov inner
//!   loops roughly in half while staying bit-identical at any thread
//!   count, driven by the precomputed per-matrix [`SpmvPlan`].
//! * [`partition`] — block-row partitioning helpers mirroring how an MPI
//!   code would decompose the global system over ranks; used by the
//!   cluster/PFS model in `lcr-ckpt` to compute per-rank checkpoint sizes.
//!
//! All floating point data is `f64`, matching the paper (78.8 GB of
//! double-precision data for the 1e10-element vector at 2,048 ranks).

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod coo;
pub mod csr;
pub mod error;
pub mod kernels;
pub mod kkt;
pub mod matrixmarket;
pub mod partition;
pub mod poisson;
pub mod shard;
pub mod simd;
pub mod vector;

pub use coo::CooMatrix;
pub use csr::{CsrMatrix, RowBlock, SpmvPlan};
pub use error::SparseError;
pub use partition::{BlockRowPartition, RankRange};
pub use shard::{
    CommAction, CommError, CommInterposer, HaloPlan, ShardComm, ShardCoordinator, ShardLayout,
    ShardedCsr, REDUCE_BLOCK,
};
pub use vector::{Vector, PAR_THRESHOLD};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
