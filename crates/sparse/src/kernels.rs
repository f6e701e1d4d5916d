//! Fused, deterministic solver kernels.
//!
//! The Krylov inner loops are bandwidth-bound chains of BLAS-1 sweeps and
//! SpMV traversals.  Executed as separate kernels they re-read the same
//! vectors from memory several times per iteration; this module fuses the
//! chains so each iteration makes roughly half the memory passes (the
//! README's "Solver kernel fusion" section tabulates the before/after
//! counts per solver).
//!
//! ## Determinism contract
//!
//! Every reduction here is computed over **fixed chunks**, and the
//! per-chunk partials are combined **in chunk order** on the calling
//! thread:
//!
//! * vector kernels split `0..len` with the same formula the rayon shim's
//!   iterator path uses (`len / DEFAULT_MIN_CHUNK`, clamped to
//!   `MAX_CHUNKS`), and every chunk body is one of the
//!   [`simd`] lane kernels (eight lane accumulators combined
//!   by a fixed pairwise tree), so e.g. the ‖r‖² returned by
//!   [`axpy2_norm2`] is bit-identical to a separate `dot(r, r)` sweep;
//! * SpMV-shaped kernels follow the matrix's precomputed
//!   [`SpmvPlan`] row partition and its SELL-style
//!   row blocks, which depend only on the matrix structure.
//!
//! Neither partition depends on the thread count, so every kernel is
//! **bit-identical at any `LCR_NUM_THREADS`** — the reproducibility
//! property the repository's thread-determinism tests pin.
//!
//! Elementwise kernels ([`axpby`], [`axpy2`], [`bicgstab_p_update`],
//! [`scale_into`], [`jacobi_sweep`]) are deterministic by construction:
//! each output element is a fixed expression of its inputs.

use crate::csr::{CsrMatrix, RowSink, SpmvPlan};
use crate::simd;
use crate::vector::PAR_THRESHOLD;

/// Shared-pointer wrapper so disjoint chunk ranges of one output buffer can
/// be written from pool workers.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);

// SAFETY: the drivers below hand out non-overlapping index ranges, so
// concurrent `range_mut` views never alias.
unsafe impl Send for SendPtr {}
// SAFETY: same disjoint-range contract as `Send` above — a `&SendPtr`
// shared across threads only ever materialises non-aliasing views.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Mutable view of `start..end` of the wrapped buffer, registered with
    /// `claims` — under the `racecheck` feature every claimed range is
    /// checked for overlap and bounds before the view is created.
    ///
    /// # Safety
    /// Ranges materialised across threads must be disjoint and in bounds —
    /// exactly what the chunk drivers below guarantee (and what `claims`
    /// asserts when `racecheck` is enabled).
    unsafe fn range_mut<'a>(self, claims: &rayon::racecheck::ClaimSet, start: usize, end: usize) -> &'a mut [f64] {
        claims.claim(start, end);
        // SAFETY: caller contract — `start..end` is in bounds of the
        // wrapped buffer and disjoint from every concurrently claimed
        // range.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), end - start) }
    }
}

/// Runs `work(start, end)` over the deterministic length-based chunking of
/// `0..len` and returns the partials in chunk order.  Sequential below
/// [`PAR_THRESHOLD`]; above it, this delegates to the rayon shim's own
/// [`rayon::run_chunks`] so the split is **the same code** the
/// `par_iter()` reductions use — which is what makes a fused norm
/// bit-identical to a separate `dot` sweep.
pub(crate) fn run_len<R: Send>(len: usize, work: impl Fn(usize, usize) -> R + Sync) -> Vec<R> {
    if len < PAR_THRESHOLD {
        return vec![work(0, len)];
    }
    rayon::run_chunks(len, rayon::DEFAULT_MIN_CHUNK, work)
}

/// Runs `work(ci, r0, r1)` over the plan's nnz-balanced row chunks (chunk
/// index first, so SpMV-shaped kernels can reach the chunk's precomputed
/// row blocks), returning the partials in chunk order.
pub(crate) fn run_plan<R: Send>(
    plan: &SpmvPlan,
    work: impl Fn(usize, usize, usize) -> R + Sync,
) -> Vec<R> {
    let chunks = plan.chunks();
    if !plan.is_parallel() || chunks.len() == 1 {
        return chunks
            .iter()
            .enumerate()
            .map(|(ci, &(r0, r1))| work(ci, r0, r1))
            .collect();
    }
    rayon::run_ordered(chunks.len(), |i| {
        let (r0, r1) = chunks[i];
        work(i, r0, r1)
    })
}

/// `y = A·x` over the plan's row chunks (used by [`CsrMatrix::spmv`]).
/// Dimensions are checked by the caller.
pub(crate) fn spmv_into(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    let plan = a.plan();
    let yp = SendPtr(y.as_mut_ptr());
    let yc = rayon::racecheck::ClaimSet::new(y.len());
    run_plan(plan, |ci, r0, r1| {
        // SAFETY: plan chunks are disjoint row ranges within `0..nrows`.
        let ys = unsafe { yp.range_mut(&yc, r0, r1) };
        a.apply_chunk(plan, ci, x, |i, sum| ys[i - r0] = sum);
    });
}

/// `r = b − A·x` with the subtraction fused into the matrix traversal
/// (used by [`CsrMatrix::residual_into`]).  Dimensions are checked by the
/// caller.
pub(crate) fn residual_into(a: &CsrMatrix, x: &[f64], b: &[f64], r: &mut [f64]) {
    let plan = a.plan();
    let rp = SendPtr(r.as_mut_ptr());
    let rc = rayon::racecheck::ClaimSet::new(r.len());
    run_plan(plan, |ci, r0, r1| {
        // SAFETY: plan chunks are disjoint row ranges within `0..nrows`.
        let rs = unsafe { rp.range_mut(&rc, r0, r1) };
        let bs = &b[r0..r1];
        a.apply_chunk(plan, ci, x, |i, sum| rs[i - r0] = bs[i - r0] - sum);
    });
}

/// [`RowSink`] for [`spmv_dot`]: stores each row sum and accumulates the
/// dot product into eight lane accumulators.  Slab groups update all lanes
/// with one vectorizable sweep (`acc[l] += w[l]·sum[l]`); irregular rows
/// rotate through lanes by `row mod 8`, so no single FP-add dependency
/// chain ever serialises the reduction.  Both lane assignments are pure
/// functions of the matrix's plan — never of the thread count — keeping
/// the reduction bit-identical at any `LCR_NUM_THREADS`.
struct SpmvDotSink<'a> {
    ys: &'a mut [f64],
    ws: &'a [f64],
    r0: usize,
    acc: [f64; simd::LANES],
}

impl RowSink for SpmvDotSink<'_> {
    #[inline]
    fn row(&mut self, i: usize, sum: f64) {
        let j = i - self.r0;
        self.ys[j] = sum;
        self.acc[j % simd::LANES] += self.ws[j] * sum;
    }

    #[inline]
    fn slab(&mut self, r: usize, sums: &[f64; simd::LANES]) {
        let j0 = r - self.r0;
        self.ys[j0..j0 + simd::LANES].copy_from_slice(sums);
        let ws = &self.ws[j0..j0 + simd::LANES];
        for l in 0..simd::LANES {
            self.acc[l] += ws[l] * sums[l];
        }
    }
}

/// [`RowSink`] for [`residual_norm2`] — same lane scheme as
/// [`SpmvDotSink`], accumulating `(b − A·x)²`.
struct ResidualNorm2Sink<'a> {
    rs: &'a mut [f64],
    bs: &'a [f64],
    r0: usize,
    acc: [f64; simd::LANES],
}

impl RowSink for ResidualNorm2Sink<'_> {
    #[inline]
    fn row(&mut self, i: usize, sum: f64) {
        let j = i - self.r0;
        let rv = self.bs[j] - sum;
        self.rs[j] = rv;
        self.acc[j % simd::LANES] += rv * rv;
    }

    #[inline]
    fn slab(&mut self, r: usize, sums: &[f64; simd::LANES]) {
        let j0 = r - self.r0;
        let rs = &mut self.rs[j0..j0 + simd::LANES];
        let bs = &self.bs[j0..j0 + simd::LANES];
        for l in 0..simd::LANES {
            let rv = bs[l] - sums[l];
            rs[l] = rv;
            self.acc[l] += rv * rv;
        }
    }
}

/// Fused SpMV + dot: `y = A·x` and `wᵀy`, in one traversal of the matrix.
///
/// CG calls this with `w = x = p` (for `pᵀA p`), BiCGStab with `w = r̂`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn spmv_dot(a: &CsrMatrix, x: &[f64], y: &mut [f64], w: &[f64]) -> f64 {
    assert_eq!(x.len(), a.ncols(), "spmv_dot: x length mismatch");
    assert_eq!(y.len(), a.nrows(), "spmv_dot: y length mismatch");
    assert_eq!(w.len(), a.nrows(), "spmv_dot: w length mismatch");
    let plan = a.plan();
    let yp = SendPtr(y.as_mut_ptr());
    let yc = rayon::racecheck::ClaimSet::new(y.len());
    let partials = run_plan(plan, |ci, r0, r1| {
        // SAFETY: plan chunks are disjoint row ranges within `0..nrows`.
        let ys = unsafe { yp.range_mut(&yc, r0, r1) };
        let ws = &w[r0..r1];
        let mut sink = SpmvDotSink {
            ys,
            ws,
            r0,
            acc: [0.0; simd::LANES],
        };
        a.apply_chunk_sink(plan, ci, x, &mut sink);
        simd::hsum(sink.acc)
    });
    partials.into_iter().sum()
}

/// Fused residual + norm: `r = b − A·x`, returning ‖r‖², in one traversal
/// (the Krylov rebuild / recovery path, previously `residual_into`
/// followed by a separate `norm2` sweep).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn residual_norm2(a: &CsrMatrix, x: &[f64], b: &[f64], r: &mut [f64]) -> f64 {
    assert_eq!(x.len(), a.ncols(), "residual_norm2: x length mismatch");
    assert_eq!(b.len(), a.nrows(), "residual_norm2: b length mismatch");
    assert_eq!(r.len(), a.nrows(), "residual_norm2: r length mismatch");
    let plan = a.plan();
    let rp = SendPtr(r.as_mut_ptr());
    let rc = rayon::racecheck::ClaimSet::new(r.len());
    let partials = run_plan(plan, |ci, r0, r1| {
        // SAFETY: plan chunks are disjoint row ranges within `0..nrows`.
        let rs = unsafe { rp.range_mut(&rc, r0, r1) };
        let bs = &b[r0..r1];
        let mut sink = ResidualNorm2Sink {
            rs,
            bs,
            r0,
            acc: [0.0; simd::LANES],
        };
        a.apply_chunk_sink(plan, ci, x, &mut sink);
        simd::hsum(sink.acc)
    });
    partials.into_iter().sum()
}

/// Fused CG solution/residual update: `x += α·p`, `r −= α·q`, returning
/// ‖r‖², in one pass over the four vectors — replacing two separate axpys
/// plus a norm sweep.
///
/// # Panics
/// Panics on length mismatch.
pub fn axpy2_norm2(alpha: f64, p: &[f64], q: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
    let n = x.len();
    assert_eq!(p.len(), n, "axpy2_norm2: p length mismatch");
    assert_eq!(q.len(), n, "axpy2_norm2: q length mismatch");
    assert_eq!(r.len(), n, "axpy2_norm2: r length mismatch");
    let xp = SendPtr(x.as_mut_ptr());
    let rp = SendPtr(r.as_mut_ptr());
    let xc = rayon::racecheck::ClaimSet::new(n);
    let rc = rayon::racecheck::ClaimSet::new(n);
    let partials = run_len(n, |s, e| {
        // SAFETY: length chunks are disjoint, and `x` and `r` are distinct
        // `&mut` buffers, so the two views never alias each other either.
        let (xs, rs) = unsafe { (xp.range_mut(&xc, s, e), rp.range_mut(&rc, s, e)) };
        crate::simd::axpy2_norm2(alpha, &p[s..e], &q[s..e], xs, rs)
    });
    partials.into_iter().sum()
}

/// Fused write-axpy + norm: `out = x + α·y`, returning ‖out‖² — BiCGStab's
/// `s = r − α v` and `r = s − ω t` updates, each previously a copy, an
/// axpy and a norm sweep.
///
/// # Panics
/// Panics on length mismatch.
pub fn waxpy_norm2(out: &mut [f64], x: &[f64], alpha: f64, y: &[f64]) -> f64 {
    let n = out.len();
    assert_eq!(x.len(), n, "waxpy_norm2: x length mismatch");
    assert_eq!(y.len(), n, "waxpy_norm2: y length mismatch");
    let op = SendPtr(out.as_mut_ptr());
    let oc = rayon::racecheck::ClaimSet::new(n);
    let partials = run_len(n, |s, e| {
        // SAFETY: length chunks are disjoint.
        let os = unsafe { op.range_mut(&oc, s, e) };
        crate::simd::waxpy_norm2(os, &x[s..e], alpha, &y[s..e])
    });
    partials.into_iter().sum()
}

/// Fused axpy + norm: `y += α·x`, returning ‖y‖² — GMRES folds the last
/// Gram–Schmidt subtraction and the next basis vector's norm into one
/// pass.
///
/// # Panics
/// Panics on length mismatch.
pub fn axpy_norm2(alpha: f64, x: &[f64], y: &mut [f64]) -> f64 {
    let n = y.len();
    assert_eq!(x.len(), n, "axpy_norm2: x length mismatch");
    let yp = SendPtr(y.as_mut_ptr());
    let yc = rayon::racecheck::ClaimSet::new(n);
    let partials = run_len(n, |s, e| {
        // SAFETY: length chunks are disjoint.
        let ys = unsafe { yp.range_mut(&yc, s, e) };
        crate::simd::axpy_norm2(alpha, &x[s..e], ys)
    });
    partials.into_iter().sum()
}

/// Two dot products sharing an operand, in one sweep: `(sᵀa, sᵀb)` —
/// BiCGStab's `(tᵀt, tᵀs)` stabilisation pair.
///
/// # Panics
/// Panics on length mismatch.
pub fn dot2(s: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    let n = s.len();
    assert_eq!(a.len(), n, "dot2: a length mismatch");
    assert_eq!(b.len(), n, "dot2: b length mismatch");
    let partials = run_len(n, |lo, hi| {
        crate::simd::dot2(&s[lo..hi], &a[lo..hi], &b[lo..hi])
    });
    partials
        .into_iter()
        .fold((0.0, 0.0), |(ta, tb), (pa, pb)| (ta + pa, tb + pb))
}

/// `y = α·x + β·y` in one pass.
///
/// # Panics
/// Panics on length mismatch.
pub fn axpby(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    let n = y.len();
    assert_eq!(x.len(), n, "axpby: x length mismatch");
    let yp = SendPtr(y.as_mut_ptr());
    let yc = rayon::racecheck::ClaimSet::new(n);
    run_len(n, |s, e| {
        // SAFETY: length chunks are disjoint.
        let ys = unsafe { yp.range_mut(&yc, s, e) };
        for (yi, xi) in ys.iter_mut().zip(&x[s..e]) {
            *yi = alpha * xi + beta * *yi;
        }
    });
}

/// `y += α·a + β·b` in one pass — BiCGStab's solution update
/// `x += α p̂ + ω ŝ`, previously two separate axpys.
///
/// # Panics
/// Panics on length mismatch.
pub fn axpy2(y: &mut [f64], alpha: f64, a: &[f64], beta: f64, b: &[f64]) {
    let n = y.len();
    assert_eq!(a.len(), n, "axpy2: a length mismatch");
    assert_eq!(b.len(), n, "axpy2: b length mismatch");
    let yp = SendPtr(y.as_mut_ptr());
    let yc = rayon::racecheck::ClaimSet::new(n);
    run_len(n, |s, e| {
        // SAFETY: length chunks are disjoint.
        let ys = unsafe { yp.range_mut(&yc, s, e) };
        for (yi, (ai, bi)) in ys.iter_mut().zip(a[s..e].iter().zip(&b[s..e])) {
            *yi = (*yi + alpha * ai) + beta * bi;
        }
    });
}

/// BiCGStab search-direction refresh `p = r + β (p − ω v)` in one pass —
/// previously an axpy, a scale and a second axpy: three passes over `p`.
/// The per-element arithmetic order matches the unfused chain, so the
/// result is bit-identical to it.
///
/// # Panics
/// Panics on length mismatch.
pub fn bicgstab_p_update(p: &mut [f64], r: &[f64], v: &[f64], beta: f64, omega: f64) {
    let n = p.len();
    assert_eq!(r.len(), n, "bicgstab_p_update: r length mismatch");
    assert_eq!(v.len(), n, "bicgstab_p_update: v length mismatch");
    let pp = SendPtr(p.as_mut_ptr());
    let pc = rayon::racecheck::ClaimSet::new(n);
    run_len(n, |s, e| {
        // SAFETY: length chunks are disjoint.
        let ps = unsafe { pp.range_mut(&pc, s, e) };
        crate::simd::bicgstab_p_update(ps, &r[s..e], &v[s..e], beta, omega);
    });
}

/// `out = α·x` in one pass — GMRES basis normalisation, previously a clone
/// plus an in-place scale (a redundant copy and a second pass).
///
/// # Panics
/// Panics on length mismatch.
pub fn scale_into(out: &mut [f64], alpha: f64, x: &[f64]) {
    let n = out.len();
    assert_eq!(x.len(), n, "scale_into: x length mismatch");
    let op = SendPtr(out.as_mut_ptr());
    let oc = rayon::racecheck::ClaimSet::new(n);
    run_len(n, |s, e| {
        // SAFETY: length chunks are disjoint.
        let os = unsafe { op.range_mut(&oc, s, e) };
        for (oi, xi) in os.iter_mut().zip(&x[s..e]) {
            *oi = alpha * xi;
        }
    });
}

/// One Jacobi sweep `out_i = (b_i − Σ_{j≠i} a_ij x_j) / a_ii`,
/// parallelised over the plan's row chunks.  The sweep reads only the
/// previous iterate, so rows are independent; the per-row arithmetic order
/// matches the sequential sweep, so the result is bit-identical to it.
///
/// `out` must not alias `x` (guaranteed by the `&mut`/`&` signature).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn jacobi_sweep(a: &CsrMatrix, x: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), a.ncols(), "jacobi_sweep: x length mismatch");
    assert_eq!(b.len(), a.nrows(), "jacobi_sweep: b length mismatch");
    assert_eq!(out.len(), a.nrows(), "jacobi_sweep: out length mismatch");
    let plan = a.plan();
    let (indptr, indices, values) = (a.indptr(), a.indices(), a.values());
    let op = SendPtr(out.as_mut_ptr());
    let oc = rayon::racecheck::ClaimSet::new(out.len());
    run_plan(plan, |_ci, r0, r1| {
        // SAFETY: plan chunks are disjoint row ranges within `0..nrows`.
        let os = unsafe { op.range_mut(&oc, r0, r1) };
        let mut k = indptr[r0];
        for i in r0..r1 {
            let end = indptr[i + 1];
            let mut sigma = 0.0;
            let mut diag = 0.0;
            for (v, &c) in values[k..end].iter().zip(&indices[k..end]) {
                if c == i {
                    diag = *v;
                } else {
                    debug_assert!(c < x.len(), "CSR column {c} out of bounds");
                    // SAFETY: `c < ncols` (CSR invariant) and
                    // `x.len() == ncols` (asserted above).
                    sigma += v * unsafe { x.get_unchecked(c) };
                }
            }
            os[i - r0] = (b[i] - sigma) / diag;
            k = end;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::poisson2d;
    use crate::Vector;

    fn rand_vec(n: usize, seed: u64) -> Vector {
        let mut v = Vector::zeros(n);
        v.fill_random(seed, -1.0, 1.0);
        v
    }

    #[test]
    fn spmv_dot_matches_composition() {
        for n in [7usize, 40] {
            let a = poisson2d(n);
            let dim = a.nrows();
            let x = rand_vec(dim, 1);
            let w = rand_vec(dim, 2);
            let mut y_fused = Vector::zeros(dim);
            let wy = spmv_dot(&a, &x, y_fused.as_mut_slice(), &w);
            let y_ref = a.mul_vec(&x);
            assert_eq!(y_fused, y_ref);
            let wy_ref = w.dot(&y_ref);
            assert!((wy - wy_ref).abs() <= 1e-12 * wy_ref.abs().max(1.0));
        }
    }

    #[test]
    fn residual_norm2_matches_composition() {
        let a = poisson2d(20);
        let dim = a.nrows();
        let x = rand_vec(dim, 3);
        let b = rand_vec(dim, 4);
        let mut r = Vector::zeros(dim);
        let rr = residual_norm2(&a, &x, &b, r.as_mut_slice());
        let r_ref = a.residual(&x, &b);
        assert_eq!(r, r_ref);
        let rr_ref = r_ref.dot(&r_ref);
        assert!((rr - rr_ref).abs() <= 1e-12 * rr_ref.max(1.0));
    }

    #[test]
    fn axpy2_norm2_matches_composition() {
        let n = PAR_THRESHOLD + 33;
        let p = rand_vec(n, 5);
        let q = rand_vec(n, 6);
        let mut x = rand_vec(n, 7);
        let mut r = rand_vec(n, 8);
        let (x0, r0) = (x.clone(), r.clone());
        let alpha = 0.37;
        let rr = axpy2_norm2(alpha, &p, &q, x.as_mut_slice(), r.as_mut_slice());
        let mut x_ref = x0;
        let mut r_ref = r0;
        x_ref.axpy(alpha, &p);
        r_ref.axpy(-alpha, &q);
        assert_eq!(x, x_ref);
        assert_eq!(r, r_ref);
        // Same chunking as `dot`, so the fused norm is bit-identical.
        assert_eq!(rr.to_bits(), r_ref.dot(&r_ref).to_bits());
    }

    #[test]
    fn waxpy_and_axpy_norms_match() {
        let n = 1234;
        let x = rand_vec(n, 9);
        let y = rand_vec(n, 10);
        let mut out = Vector::zeros(n);
        let ss = waxpy_norm2(out.as_mut_slice(), &x, -0.25, &y);
        let mut ref_out = x.clone();
        ref_out.axpy(-0.25, &y);
        assert_eq!(out, ref_out);
        assert_eq!(ss.to_bits(), ref_out.dot(&ref_out).to_bits());

        let mut y2 = y.clone();
        let nn = axpy_norm2(0.5, &x, y2.as_mut_slice());
        let mut y_ref = y.clone();
        y_ref.axpy(0.5, &x);
        assert_eq!(y2, y_ref);
        assert_eq!(nn.to_bits(), y_ref.dot(&y_ref).to_bits());
    }

    #[test]
    fn dot2_matches_two_dots() {
        let n = PAR_THRESHOLD + 5;
        let s = rand_vec(n, 11);
        let a = rand_vec(n, 12);
        let b = rand_vec(n, 13);
        let (sa, sb) = dot2(&s, &a, &b);
        assert_eq!(sa.to_bits(), s.dot(&a).to_bits());
        assert_eq!(sb.to_bits(), s.dot(&b).to_bits());
    }

    #[test]
    fn elementwise_kernels_match_chains() {
        let n = 777;
        let r = rand_vec(n, 14);
        let v = rand_vec(n, 15);
        let p0 = rand_vec(n, 16);
        let (beta, omega) = (1.7, 0.6);

        let mut p_fused = p0.clone();
        bicgstab_p_update(p_fused.as_mut_slice(), &r, &v, beta, omega);
        let mut p_ref = p0.clone();
        p_ref.axpy(-omega, &v);
        p_ref.scale(beta);
        p_ref.axpy(1.0, &r);
        assert_eq!(p_fused, p_ref);

        let mut y = p0.clone();
        axpy2(y.as_mut_slice(), 0.3, &r, -0.8, &v);
        let mut y_ref = p0.clone();
        y_ref.axpy(0.3, &r);
        y_ref.axpy(-0.8, &v);
        assert_eq!(y, y_ref);

        let mut z = p0.clone();
        axpby(2.0, &r, -0.5, z.as_mut_slice());
        for i in 0..n {
            assert_eq!(z[i], 2.0 * r[i] + -0.5 * p0[i]);
        }

        let mut sc = Vector::zeros(n);
        scale_into(sc.as_mut_slice(), 3.0, &r);
        for i in 0..n {
            assert_eq!(sc[i], 3.0 * r[i]);
        }
    }

    #[test]
    fn jacobi_sweep_matches_sequential_reference() {
        let a = poisson2d(12);
        let dim = a.nrows();
        let x = rand_vec(dim, 17);
        let b = rand_vec(dim, 18);
        let mut out = Vector::zeros(dim);
        jacobi_sweep(&a, &x, &b, out.as_mut_slice());
        for i in 0..dim {
            let mut sigma = 0.0;
            let mut diag = 0.0;
            for (pos, &j) in a.row_indices(i).iter().enumerate() {
                if j == i {
                    diag = a.row_values(i)[pos];
                } else {
                    sigma += a.row_values(i)[pos] * x[j];
                }
            }
            let expect = (b[i] - sigma) / diag;
            assert_eq!(out[i], expect);
        }
    }
}
