//! Direct-call timings of each layer on the workload's own data.
//!
//! These call the layers' public functions outside any solve: SpMV and
//! the block-Jacobi apply on the workload's system, SZ encode/decode on
//! the solution snapshots of a failure-free solve at the workload's error
//! bound, CRC32 and a durable `DiskStore` push and re-open on the
//! workload's checkpoint payload, and a streaming triad as the same-process
//! bandwidth reference.  Bytes moved are computed from array sizes, not
//! measured.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use lossy_ckpt::ckpt::disk::crc32;
use lossy_ckpt::ckpt::{CheckpointBuffer, CheckpointLevel, DiskStore};
use lossy_ckpt::compress::{
    Compressed, DeltaMode, ErrorBound, LossyCompressor, SzCompressor, SzTemporalState,
};
use lossy_ckpt::solvers::{BlockJacobiPreconditioner, Preconditioner};
use lossy_ckpt::sparse::Vector;

use crate::stats::{median, Metric};
use crate::workload::{negated, Bench, Spec, ThreadCap};

/// Elements per triad array: 3 arrays of 32 MiB each.
pub const TRIAD_LEN: usize = 1 << 22;

/// Median milliseconds per call of `f` over `reps` calls.
fn per_call_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Single-threaded streaming triad `a = b + s·c` in GB/s (24 bytes per
/// element, computed; median of 10 passes).
pub fn triad_gbs() -> f64 {
    let b = vec![1.0f64; TRIAD_LEN];
    let c = vec![2.0f64; TRIAD_LEN];
    let mut a = vec![0.0f64; TRIAD_LEN];
    let s = black_box(0.5);
    let ms = per_call_ms(10, || {
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
    });
    24.0 * TRIAD_LEN as f64 / (ms * 1e-3) / 1e9
}

/// The error bound the workload's checkpoints are encoded at.
pub fn policy_bound(bench: &Bench) -> ErrorBound {
    match bench.workload.spec {
        Spec::Sharded(_) => ErrorBound::ValueRangeRel(1e-4),
        Spec::Cg(_) => ErrorBound::PointwiseRel(1e-4),
    }
}

/// Every direct-call metric for `bench`; `snaps` are four solution
/// snapshots one checkpoint interval apart, `scratch` an empty directory.
pub fn measure(bench: &Bench, snaps: &[Vector], scratch: &Path) -> Vec<Metric> {
    let _threads = ThreadCap::new(bench.threads);
    let mut out = Vec::new();
    let a = &bench.problem.system.a;
    let n = a.nrows();
    let x = &snaps[0];

    // lcr_sparse: SpMV on the workload's matrix.
    let mut y = vec![0.0; n];
    let spmv_ms = per_call_ms(40, || a.spmv(black_box(x.as_slice()), &mut y));
    let spmv_mb = (a.nnz() * 16 + (n + 1) * 8 + 2 * n * 8) as f64 / 1e6;
    out.push(Metric::new("sparse.spmv_ms", spmv_ms, "ms"));
    out.push(Metric::new("sparse.spmv_mb_computed", spmv_mb, "MB"));
    out.push(Metric::new(
        "sparse.spmv_gbs_computed",
        spmv_mb / spmv_ms,
        "GB/s",
    ));
    out.push(Metric::new("sparse.triad_gbs", triad_gbs(), "GB/s"));

    // lcr_solvers: the 16-block ILU(0) apply CG uses, on the SPD system.
    let (spd, _) = negated(&bench.problem);
    let pre = BlockJacobiPreconditioner::new(&spd, 16).expect("block Jacobi on SPD Poisson");
    let r = spd.residual(x, &Vector::filled(n, 1.0));
    let mut z = Vector::zeros(n);
    let apply_ms = per_call_ms(20, || pre.apply_into(black_box(&r), &mut z));
    let apply_mb = (pre.storage_bytes() + 2 * n * 8) as f64 / 1e6;
    out.push(Metric::new("solvers.precond_apply_ms", apply_ms, "ms"));
    out.push(Metric::new(
        "solvers.precond_apply_mb_computed",
        apply_mb,
        "MB",
    ));
    out.push(Metric::new(
        "solvers.precond_apply_gbs_computed",
        apply_mb / apply_ms,
        "GB/s",
    ));

    // lcr_compress: SZ on the snapshots at the policy bound.
    let bound = policy_bound(bench);
    let sz = SzCompressor::new();
    let mut anchor = Vec::new();
    let encode_ms = per_call_ms(15, || {
        anchor.clear();
        sz.compress_into(black_box(x.as_slice()), bound, &mut anchor)
            .expect("SZ encodes a finite snapshot");
    });
    // A 4-link chain (anchor + 3 deltas); the last delta is also timed
    // alone, against the state the earlier links left.
    let mut links = Vec::new();
    let mut state = SzTemporalState::new();
    let mut primed = SzTemporalState::new();
    for (i, s) in snaps.iter().enumerate() {
        if i + 1 == snaps.len() {
            primed = state.clone();
        }
        let mut bytes = Vec::new();
        sz.compress_temporal_into(
            s.as_slice(),
            bound,
            DeltaMode::Order2,
            i == 0,
            &mut state,
            &mut bytes,
        )
        .expect("SZ encodes a finite snapshot");
        links.push(Compressed {
            bytes,
            n_elements: n,
        });
    }
    let last = &snaps[snaps.len() - 1];
    let mut delta_times = Vec::new();
    for _ in 0..15 {
        let mut st = primed.clone();
        let mut bytes = Vec::new();
        let t = Instant::now();
        sz.compress_temporal_into(
            black_box(last.as_slice()),
            bound,
            DeltaMode::Order2,
            false,
            &mut st,
            &mut bytes,
        )
        .expect("SZ encodes a finite snapshot");
        delta_times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let anchor_c = Compressed {
        bytes: anchor.clone(),
        n_elements: n,
    };
    let decode_ms = per_call_ms(15, || {
        black_box(sz.decompress(&anchor_c).expect("SZ decodes its own stream"));
    });
    let chain_ms = per_call_ms(10, || {
        black_box(
            sz.decompress_chain(&links)
                .expect("SZ replays its own chain"),
        );
    });
    out.push(Metric::new("compress.sz_encode_ms", encode_ms, "ms"));
    out.push(Metric::new(
        "compress.sz_delta_encode_ms",
        median(&delta_times),
        "ms",
    ));
    out.push(Metric::new("compress.sz_decode_ms", decode_ms, "ms"));
    out.push(Metric::new("compress.sz_chain_decode_ms", chain_ms, "ms"));
    out.push(Metric::new(
        "compress.ratio",
        (n * 8) as f64 / anchor.len() as f64,
        "ratio",
    ));

    // lcr_ckpt: CRC32 and a durable push / re-open of the workload's own
    // checkpoint payload (raw x and p for traditional, the SZ anchor
    // otherwise).
    let traditional =
        matches!(&bench.workload.spec, Spec::Cg(c) if c.strategy.name() == "traditional");
    let mut buffer = CheckpointBuffer::new();
    if traditional {
        for (name, v) in [("x", &snaps[0]), ("p", &snaps[1])] {
            buffer.push_with(name, |out| {
                out.extend(v.as_slice().iter().flat_map(|f| f.to_le_bytes()))
            });
        }
    } else {
        buffer.push_with("x", |out| out.extend_from_slice(&anchor));
    }
    let payload = buffer.arena_bytes();
    let crc_ms = per_call_ms(15, || {
        black_box(crc32(black_box(payload)));
    });
    out.push(Metric::new(
        "ckpt.payload_mb",
        payload.len() as f64 / 1e6,
        "MB",
    ));
    out.push(Metric::new(
        "ckpt.crc32_gbs",
        payload.len() as f64 / (crc_ms * 1e-3) / 1e9,
        "GB/s",
    ));
    let tag = if traditional { "traditional" } else { "lossy" };
    let mut iteration = 0;
    let push_ms = match DiskStore::open(scratch, 2) {
        Ok(mut store) => per_call_ms(10, || {
            iteration += 1;
            store
                .push_from_buffer(
                    iteration,
                    0.0,
                    CheckpointLevel::Pfs,
                    n * 8,
                    None,
                    tag,
                    &[],
                    &buffer,
                )
                .expect("durable push to the scratch directory");
        }),
        Err(_) => f64::NAN,
    };
    let open_read_ms = per_call_ms(10, || {
        let chain = DiskStore::open(scratch, 2).and_then(|mut s| s.latest_valid_chain());
        black_box(chain.expect("re-reading the pushed checkpoints"));
    });
    out.push(Metric::new("ckpt.push_ms", push_ms, "ms"));
    out.push(Metric::new("ckpt.open_read_ms", open_read_ms, "ms"));
    out
}
