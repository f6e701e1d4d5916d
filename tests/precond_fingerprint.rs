//! Bit-level fingerprints of the block-Jacobi ILU(0) preconditioner and of
//! the preconditioned CG the paper workload builds.
//!
//! The goldens were recorded from the serial, `CsrMatrix::get`-based
//! factorisation.  Any rewrite of the kernels (diagonal-indexed sweeps,
//! blocks on the pool) must reproduce them exactly: same division by the
//! pivot, same ascending-column update order, same skip of zero `U`
//! entries.

use lossy_ckpt::core::workload::PaperWorkload;
use lossy_ckpt::solvers::{BlockJacobiPreconditioner, Preconditioner, SolverKind};
use lossy_ckpt::sparse::poisson::poisson3d;
use lossy_ckpt::sparse::{CsrMatrix, Vector};

/// FNV-1a over the IEEE-754 bit patterns, in order.
fn fingerprint<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// SPD 3-D Poisson matrix (the generator uses the paper's negative sign).
fn spd_poisson3d(edge: usize) -> CsrMatrix {
    let mut a = poisson3d(edge);
    for v in a.values_mut() {
        *v = -*v;
    }
    a
}

/// A right-hand side with no symmetry the blocks could hide behind.
fn rough_rhs(n: usize) -> Vector {
    Vector::from_vec(
        (0..n)
            .map(|i| (0.37 * i as f64).sin() + 0.01 * i as f64)
            .collect(),
    )
}

fn bjacobi_fingerprint(a: &CsrMatrix, n_blocks: usize) -> u64 {
    let pre = BlockJacobiPreconditioner::new(a, n_blocks).expect("SPD Poisson factorises");
    let z = pre.apply(&rough_rhs(a.nrows()));
    // Applying twice must not depend on state left by the first apply.
    let mut again = Vector::zeros(a.nrows());
    pre.apply_into(&rough_rhs(a.nrows()), &mut again);
    assert_eq!(fingerprint(z.iter()), fingerprint(again.iter()));
    fingerprint(z.iter())
}

#[test]
fn block_jacobi_apply_matches_pinned_bits() {
    // 216 rows in 5 blocks: 44 + 43 + 43 + 43 + 43, uneven on purpose.
    let a = spd_poisson3d(6);
    assert_eq!(bjacobi_fingerprint(&a, 5), 0xe611_e5f4_3ee1_ca59);
    assert_eq!(bjacobi_fingerprint(&a, 1), 0x4f8f_115d_9a51_32e3);
    // More blocks than rows clamps to one row per block.
    let small = spd_poisson3d(3);
    assert_eq!(bjacobi_fingerprint(&small, 40), 0x3349_8bab_6cd4_8ee2);
}

#[test]
fn preconditioned_cg_residual_history_matches_pinned_bits() {
    let workload = PaperWorkload::poisson(256, 7);
    let problem = workload.build();
    let mut solver = workload.build_solver(&problem, SolverKind::Cg, 10_000);
    let iterations = solver.run_to_convergence();
    let history = solver.history();
    assert!(!history.limit_reached);
    assert_eq!(iterations, 20);
    assert_eq!(history.initial_residual().to_bits(), 0x403c_b43b_ed84_0e4a);
    assert_eq!(fingerprint(history.residuals()), 0xa069_9afc_123d_5d33);
    assert_eq!(fingerprint(solver.solution().iter()), 0x588e_3c59_87a0_8eb4);
}
