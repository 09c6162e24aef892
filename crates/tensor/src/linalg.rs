//! Dense GEMM: one register-tiled micro-kernel behind every matrix
//! product in the repo.
//!
//! [`gemm_windows`] computes `Σ_p a[i][p] · b[row(p) + j]` for an `m × n`
//! output, where row `p` of the right-hand matrix is the `n`-wide window of
//! a flat buffer starting at `row(p)`. With `row(p) = p·n` that is the
//! ordinary row-major product ([`matmul_into`]: fully connected layers,
//! training); with the tap offsets of a padded or phase-split plane set it
//! is a convolution whose column matrix is never materialized
//! ([`crate::conv::conv2d_into`]).
//!
//! Each `MR × NR` output tile is accumulated in fixed-size arrays that LLVM
//! keeps in vector registers (safe code only, no intrinsics). Every output
//! element is still its own sum, taken in ascending `p` with a separate
//! multiply and add — never `mul_add` — so the result is **bitwise
//! identical** to the scalar `for p { c[i][j] += a[i][p] * b[p][j] }`
//! reference, which stays in this module's tests as the oracle.

use crate::scalar::Scalar;
use crate::shape::Shape2;
use rayon::prelude::*;

/// Rows of the accumulator tile: one broadcast `a` value each.
const MR: usize = 3;
/// Columns of the accumulator tile: four SSE vectors of `f32`. `MR·NR/4`
/// accumulators plus the broadcasts fill the 16 baseline x86-64 vector
/// registers.
const NR: usize = 16;

/// Multiply-adds below which [`matmul_into`] stays on the calling thread.
/// The rayon stand-in forks scoped threads per region, about 80 µs on the
/// 2-core build box — as long as this kernel takes for 1.3 M multiply-adds
/// — so splitting across two workers only pays from roughly 4 M
/// (`bench_tensor`'s `gemm_fork_crossover` group re-measures it).
const PAR_MIN_MACS: usize = 1 << 22;

/// One `R × W` tile at `(i0, j0)`: `acc[r][c] = Σ_p a[i0+r][p] · b[row(p) + j0 + c]`,
/// `p` ascending.
#[inline(always)]
fn tile<T: Scalar, const R: usize, const W: usize>(
    a: &[T],
    k: usize,
    i0: usize,
    b: &[T],
    row: &impl Fn(usize) -> usize,
    j0: usize,
) -> [[T; W]; R] {
    let a_rows: [&[T]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
    let mut acc = [[T::zero(); W]; R];
    for p in 0..k {
        let start = row(p) + j0;
        let window: &[T; W] = b[start..start + W].try_into().expect("slice of length W");
        for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
            let av = a_row[p];
            for (x, &bv) in acc_row.iter_mut().zip(window) {
                *x += av * bv;
            }
        }
    }
    acc
}

/// Cover the `m × n` output with `R × W` tiles (`R ≤ m`, `W ≤ n`). A ragged
/// last tile is shifted back inside the matrix instead of narrowed, so it
/// recomputes a few elements — to the same bits — and never reads past a
/// window's end.
fn tiles<T: Scalar, const R: usize, const W: usize>(
    a: &[T],
    m: usize,
    k: usize,
    b: &[T],
    row: &impl Fn(usize) -> usize,
    n: usize,
    emit: &mut impl FnMut(usize, usize, &[T]),
) {
    for j0 in (0..n).step_by(W) {
        let j0 = j0.min(n - W);
        for i0 in (0..m).step_by(R) {
            let i0 = i0.min(m - R);
            let acc = tile::<T, R, W>(a, k, i0, b, row, j0);
            for (r, vals) in acc.iter().enumerate() {
                emit(i0 + r, j0, vals);
            }
        }
    }
}

fn tiles_of_width<T: Scalar, const W: usize>(
    a: &[T],
    m: usize,
    k: usize,
    b: &[T],
    row: &impl Fn(usize) -> usize,
    n: usize,
    emit: &mut impl FnMut(usize, usize, &[T]),
) {
    if m >= MR {
        tiles::<T, MR, W>(a, m, k, b, row, n, emit);
    } else {
        tiles::<T, 1, W>(a, m, k, b, row, n, emit);
    }
}

/// The GEMM micro-kernel. For every `i < m`, `j < n` computes
/// `Σ_{p<k} a[i·k + p] · b[row(p) + j]` (`p` ascending, multiply then add)
/// and hands the finished values to `emit(i, j0, vals)` in runs:
/// `vals[c]` is output element `(i, j0 + c)`.
///
/// `emit` must *assign*: runs of neighbouring tiles may overlap, and an
/// element delivered twice carries the same bits both times. Panics if a
/// window `row(p) .. row(p) + n` leaves `b` (an internal call-site
/// invariant, not user input).
pub fn gemm_windows<T: Scalar>(
    a: &[T],
    m: usize,
    k: usize,
    b: &[T],
    row: impl Fn(usize) -> usize,
    n: usize,
    mut emit: impl FnMut(usize, usize, &[T]),
) {
    assert_eq!(a.len(), m * k, "lhs buffer/dim mismatch");
    if m == 0 {
        return;
    }
    match n {
        0 => {}
        1..=3 => tiles_of_width::<T, 1>(a, m, k, b, &row, n, &mut emit),
        4..=7 => tiles_of_width::<T, 4>(a, m, k, b, &row, n, &mut emit),
        8..=15 => tiles_of_width::<T, 8>(a, m, k, b, &row, n, &mut emit),
        _ => tiles_of_width::<T, NR>(a, m, k, b, &row, n, &mut emit),
    }
}

/// `c = a(m×k) * b(k×n)`, row-major. Panics if slice lengths disagree with
/// the dimensions (these are internal-call-site invariants, not user input).
pub fn matmul<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<T> {
    let mut c = vec![T::zero(); m * n];
    matmul_into(a, b, &mut c, m, k, n);
    c
}

/// Allocation-free GEMM: write `a(m×k) * b(k×n)` into `c` (overwritten),
/// splitting the output rows across rayon workers when the product is
/// large enough to pay for the fork. Training and the one-off callers use
/// this; the execution plan, which parallelizes over batch items instead,
/// calls [`matmul_serial_into`]. Both give the same bits.
pub fn matmul_into<T: Scalar>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
    let threads = rayon::current_num_threads();
    if threads < 2 || m < 2 * MR || m.saturating_mul(k).saturating_mul(n) < PAR_MIN_MACS {
        return matmul_serial_into(a, b, c, m, k, n);
    }
    assert_eq!(a.len(), m * k, "lhs buffer/dim mismatch");
    assert_eq!(c.len(), m * n, "out buffer/dim mismatch");
    let rows = m.div_ceil(threads).next_multiple_of(MR);
    c.par_chunks_mut(rows * n)
        .enumerate()
        .for_each(|(block, c_rows)| {
            let a_rows = &a[block * rows * k..][..c_rows.len() / n * k];
            matmul_serial_into(a_rows, b, c_rows, c_rows.len() / n, k, n);
        });
}

/// [`matmul_into`] on the calling thread only.
pub fn matmul_serial_into<T: Scalar>(a: &[T], b: &[T], c: &mut [T], m: usize, k: usize, n: usize) {
    assert_eq!(b.len(), k * n, "rhs buffer/dim mismatch");
    assert_eq!(c.len(), m * n, "out buffer/dim mismatch");
    gemm_windows(
        a,
        m,
        k,
        b,
        |p| p * n,
        n,
        |i, j0, vals| {
            c[i * n + j0..][..vals.len()].copy_from_slice(vals);
        },
    );
}

/// `y = a(m×k) * x(k)` matrix–vector product.
pub fn matvec<T: Scalar>(a: &[T], x: &[T], m: usize, k: usize) -> Vec<T> {
    assert_eq!(a.len(), m * k, "matrix buffer/dim mismatch");
    assert_eq!(x.len(), k, "vector length mismatch");
    (0..m)
        .map(|i| {
            let mut acc = T::zero();
            for (p, &xv) in x.iter().enumerate() {
                acc += a[i * k + p] * xv;
            }
            acc
        })
        .collect()
}

/// Out-of-place transpose of a row-major `rows×cols` matrix.
pub fn transpose<T: Scalar>(a: &[T], shape: Shape2) -> Vec<T> {
    assert_eq!(a.len(), shape.len(), "buffer/shape mismatch");
    let mut t = vec![T::zero(); a.len()];
    for i in 0..shape.rows {
        for j in 0..shape.cols {
            t[j * shape.rows + i] = a[i * shape.cols + j];
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_2x2_known() {
        // |1 2| |5 6|   |19 22|
        // |3 4| |7 8| = |43 50|
        let c = matmul(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2, 2, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        assert_eq!(matmul(&a, &eye, 4, 3, 3), a);
    }

    #[test]
    fn matmul_rectangular() {
        // 1x3 * 3x2
        let c = matmul(&[1.0, 2.0, 3.0], &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0], 1, 3, 2);
        assert_eq!(c, vec![14.0, 32.0]);
    }

    #[test]
    fn matmul_integer_exact() {
        let a: Vec<i64> = (1..=6).collect(); // 2x3
        let b: Vec<i64> = (1..=6).collect(); // 3x2
        assert_eq!(matmul(&a, &b, 2, 3, 2), vec![22, 28, 49, 64]);
    }

    /// The scalar ikj loop the micro-kernel replaced, kept as the oracle.
    fn matmul_ikj(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0_f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let aip = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] += aip * b[p * n + j];
                }
            }
        }
        c
    }

    fn operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        // inexact products, so a changed summation order would show
        let a = (0..m * k).map(|v| ((v * 7 + 3) % 13) as f32 / 7.0 - 0.9);
        let b = (0..k * n).map(|v| ((v * 5 + 1) % 11) as f32 / 3.0 - 1.7);
        (a.collect(), b.collect())
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tiled_kernel_is_bitwise_the_ikj_loop() {
        // every tile width (1, 4, 8, 16), full and shifted-back ragged
        // tiles in both directions, and m below the tile height
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 3),
            (3, 5, 4),
            (4, 2, 7),
            (5, 9, 8),
            (7, 4, 15),
            (3, 6, 16),
            (8, 3, 17),
            (6, 7, 33),
            (2, 5, 40),
        ] {
            let (a, b) = operands(m, k, n);
            assert_eq!(
                bits(&matmul(&a, &b, m, k, n)),
                bits(&matmul_ikj(&a, &b, m, k, n)),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn windows_may_overlap_and_never_overrun() {
        // rows are overlapping windows of one buffer whose last window
        // ends exactly at the buffer's end, as in the column-free conv
        let buf: Vec<f32> = (0..24).map(|v| v as f32 * 0.25 - 2.0).collect();
        let a = [0.5_f32, -1.5, 2.0, 0.75, 1.25, -0.5];
        let (m, k, n) = (2, 3, 20);
        let starts = [0usize, 1, 4];
        let mut got = vec![f32::NAN; m * n];
        gemm_windows(
            &a,
            m,
            k,
            &buf,
            |p| starts[p],
            n,
            |i, j0, vals| {
                got[i * n + j0..][..vals.len()].copy_from_slice(vals);
            },
        );
        let dense: Vec<f32> = starts
            .iter()
            .flat_map(|&s| buf[s..s + n].iter().copied())
            .collect();
        assert_eq!(bits(&got), bits(&matmul_ikj(&a, &dense, m, k, n)));
    }

    #[test]
    fn zero_inner_dimension_yields_zeros() {
        let mut c = [7.0_f32; 6];
        matmul_into(&[], &[], &mut c, 2, 0, 3);
        assert_eq!(c, [0.0; 6]);
    }

    #[test]
    #[cfg(not(miri))] // four million multiply-adds, twice
    fn parallel_path_matches_serial() {
        let m = 164;
        assert!(m * m * m >= PAR_MIN_MACS);
        let (a, b) = operands(m, m, m);
        let mut serial = vec![0.0_f32; m * m];
        matmul_serial_into(&a, &b, &mut serial, m, m, m);
        assert_eq!(bits(&matmul(&a, &b, m, m, m)), bits(&serial));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a: Vec<f32> = (0..6).map(|v| v as f32).collect();
        let x = [1.0, -1.0, 2.0];
        assert_eq!(matvec(&a, &x, 2, 3), matmul(&a, &x, 2, 3, 1));
    }

    #[test]
    fn transpose_involution() {
        let a: Vec<f32> = (0..6).map(|v| v as f32).collect();
        let t = transpose(&a, Shape2::new(2, 3));
        assert_eq!(t, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        let tt = transpose(&t, Shape2::new(3, 2));
        assert_eq!(tt, a);
    }

    #[test]
    #[should_panic(expected = "lhs buffer/dim mismatch")]
    fn matmul_panics_on_bad_dims() {
        let _ = matmul(&[1.0_f32; 3], &[1.0; 4], 2, 2, 2);
    }
}
