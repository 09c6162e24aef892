//! # mlcnn-tensor
//!
//! Numerical substrate for the MLCNN reproduction: a small, strict,
//! NCHW-layout tensor library with reference convolution, pooling and
//! activation kernels.
//!
//! Everything in the higher-level crates — the trainable network framework,
//! the fused conv-pool operator with RME/LAR/GAR reuse, the quantizers and
//! the accelerator model — is validated against the *reference kernels*
//! defined here. The reference kernels are deliberately written as plain,
//! obviously-correct loop nests; performance-oriented variants (the
//! register-tiled GEMM, the column-free convolution over it, rayon-parallel
//! batching) live alongside them and are property-tested for equality.
//!
//! ## Layout
//!
//! * [`shape`] — shape algebra for 2-D and 4-D (NCHW) tensors and the
//!   convolution/pooling output-geometry arithmetic used throughout the
//!   paper's analytic model.
//! * [`scalar`] — the [`Scalar`](scalar::Scalar) numeric trait letting the
//!   same kernels run at `f32`, `f64` and integer precisions (and, via the
//!   `mlcnn-quant` crate, software `f16`).
//! * [`tensor`] — the dense [`Tensor`](tensor::Tensor) container.
//! * [`init`] — deterministic random initializers (uniform, Kaiming-style
//!   fan-in scaling) built on a seeded PRNG.
//! * [`linalg`] — the one GEMM micro-kernel behind every matrix product.
//! * [`im2col`] — im2col/col2im lowering (conv backward, strided fallback).
//! * [`conv`] — the direct reference and the column-free forward kernel.
//! * [`pool`] — average and max pooling (with argmax capture for backprop).
//! * [`activation`] — elementwise nonlinearities.
//! * [`parallel`] — rayon helpers for batch-parallel kernels.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod activation;
pub mod conv;
pub mod error;
pub mod im2col;
pub mod init;
pub mod linalg;
pub mod parallel;
pub mod pool;
pub mod scalar;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use scalar::Scalar;
pub use shape::{ConvGeometry, PoolGeometry, Shape2, Shape4};
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
