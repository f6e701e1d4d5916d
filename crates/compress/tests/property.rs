//! Property-based tests of the compressor contracts.
//!
//! The error-bound guarantee is the foundation of the paper's Theorems 2
//! and 3, so it is checked here against arbitrary (not hand-picked) data:
//! for every generated input and every bound mode, the decompressed output
//! must stay within the bound element-wise, and the lossless codecs must be
//! bit-exact.

use lcr_compress::{
    ErrorBound, FpcCodec, LosslessCompressor, LosslessPipeline, LossyCompressor, LzssCodec,
    SzCompressor, ZfpCompressor,
};
use proptest::prelude::*;

/// Generates scientifically-plausible values: a mix of magnitudes, signs,
/// exact zeros and smooth segments.
fn data_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            3 => -1.0e3f64..1.0e3,
            2 => -1.0f64..1.0,
            1 => -1.0e-6f64..1.0e-6,
            1 => Just(0.0f64),
            1 => 1.0f64..1.0e9,
        ],
        0..400,
    )
}

fn value_range(data: &[f64]) -> f64 {
    let (mn, mx) = data
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
    if data.is_empty() {
        0.0
    } else {
        mx - mn
    }
}

fn check_bound(data: &[f64], restored: &[f64], bound: ErrorBound) {
    assert_eq!(data.len(), restored.len());
    let range = value_range(data);
    for (i, (&a, &b)) in data.iter().zip(restored.iter()).enumerate() {
        let allowed = bound.allowed_abs_error(a, range) * (1.0 + 1e-9) + 1e-280;
        assert!(
            (a - b).abs() <= allowed,
            "element {i}: |{a} - {b}| = {} > {allowed} under {bound:?}",
            (a - b).abs()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sz_honours_absolute_bound(data in data_strategy(), exp in -10i32..-1) {
        let eb = 10f64.powi(exp);
        let sz = SzCompressor::new();
        let c = sz.compress(&data, ErrorBound::Abs(eb)).unwrap();
        let r = sz.decompress(&c).unwrap();
        check_bound(&data, &r, ErrorBound::Abs(eb));
    }

    #[test]
    fn sz_honours_pointwise_relative_bound(data in data_strategy(), exp in -8i32..-2) {
        let eb = 10f64.powi(exp);
        let sz = SzCompressor::new();
        let c = sz.compress(&data, ErrorBound::PointwiseRel(eb)).unwrap();
        let r = sz.decompress(&c).unwrap();
        check_bound(&data, &r, ErrorBound::PointwiseRel(eb));
    }

    #[test]
    fn sz_honours_value_range_relative_bound(data in data_strategy(), exp in -8i32..-2) {
        let eb = 10f64.powi(exp);
        let sz = SzCompressor::new();
        let c = sz.compress(&data, ErrorBound::ValueRangeRel(eb)).unwrap();
        let r = sz.decompress(&c).unwrap();
        check_bound(&data, &r, ErrorBound::ValueRangeRel(eb));
    }

    #[test]
    fn zfp_honours_absolute_bound(
        data in prop::collection::vec(-1.0e3f64..1.0e3, 0..400),
        exp in -6i32..-1,
    ) {
        // ZFP's block fixed-point representation cannot honour bounds far
        // below the precision of the common block exponent (the same
        // limitation the real ZFP has in fixed-accuracy mode), so the
        // property is checked over the regime the checkpointing scheme
        // actually uses: moderate magnitudes and bounds ≥ 1e-6.
        let eb = 10f64.powi(exp);
        let zfp = ZfpCompressor::new();
        let c = zfp.compress(&data, ErrorBound::Abs(eb)).unwrap();
        let r = zfp.decompress(&c).unwrap();
        check_bound(&data, &r, ErrorBound::Abs(eb));
    }

    #[test]
    fn lossless_codecs_are_bit_exact(data in data_strategy()) {
        for codec in [
            Box::new(FpcCodec::new()) as Box<dyn LosslessCompressor>,
            Box::new(LzssCodec::new()),
            Box::new(LosslessPipeline::new()),
        ] {
            let c = codec.compress(&data).unwrap();
            let r = codec.decompress(&c).unwrap();
            prop_assert_eq!(r.len(), data.len());
            for (a, b) in data.iter().zip(r.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn compressed_streams_are_self_describing(data in data_strategy()) {
        // Compressing then decompressing through the trait objects never
        // mixes codecs up: each stream decodes only with its own codec.
        let sz = SzCompressor::new();
        let zfp = ZfpCompressor::new();
        let c = sz.compress(&data, ErrorBound::Abs(1e-6)).unwrap();
        if !data.is_empty() {
            prop_assert!(zfp.decompress(&c).is_err());
        }
        prop_assert!(sz.decompress(&c).is_ok());
    }

    #[test]
    fn lzss_roundtrips_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..2000)) {
        let lz = LzssCodec::new();
        let c = lz.compress_bytes(&bytes);
        let r = lz.decompress_bytes(&c).unwrap();
        prop_assert_eq!(r, bytes);
    }

    // ---- decoder hardening -------------------------------------------------

    #[test]
    fn truncated_sz_streams_error_not_panic(
        data in prop::collection::vec(-1.0e3f64..1.0e3, 1..300),
        cut_frac in 0.0f64..1.0,
    ) {
        // Both transforms (direct and point-wise-relative log): any proper
        // prefix must produce CompressError::Corrupt — never a panic, never
        // a huge allocation from a truncated length field.
        let sz = SzCompressor::new();
        for compressed in [
            sz.compress(&data, ErrorBound::Abs(1e-6)).unwrap(),
            sz.compress(&data, ErrorBound::PointwiseRel(1e-4)).unwrap(),
        ] {
            let cut = ((compressed.bytes.len() as f64 * cut_frac) as usize)
                .min(compressed.bytes.len() - 1);
            let truncated = lcr_compress::Compressed {
                bytes: compressed.bytes[..cut].to_vec(),
                n_elements: compressed.n_elements,
            };
            prop_assert!(sz.decompress(&truncated).is_err());
        }
    }

    #[test]
    fn bitflipped_sz_streams_never_panic(
        data in prop::collection::vec(-1.0e3f64..1.0e3, 1..300),
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        // A single flipped bit anywhere in the stream may decode to
        // garbage values (lossy streams carry no checksum) but must never
        // panic or over-allocate.
        let sz = SzCompressor::new();
        for mut compressed in [
            sz.compress(&data, ErrorBound::Abs(1e-6)).unwrap(),
            sz.compress(&data, ErrorBound::PointwiseRel(1e-4)).unwrap(),
        ] {
            let pos = ((compressed.bytes.len() as f64 * flip_frac) as usize)
                .min(compressed.bytes.len() - 1);
            compressed.bytes[pos] ^= 1 << bit;
            let _ = sz.decompress(&compressed);
        }
    }

    #[test]
    fn corrupted_huffman_blobs_error_not_panic(
        symbols in prop::collection::vec(0u32..70_000, 1..500),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let blob = lcr_compress::huffman::encode_block(&symbols);
        // Truncation always errors.
        let cut = ((blob.len() as f64 * cut_frac) as usize).min(blob.len() - 1);
        let mut pos = 0usize;
        prop_assert!(lcr_compress::huffman::decode_block(&blob[..cut], &mut pos).is_err());
        // A bit flip errors or decodes to something — but never panics.
        let mut flipped = blob.clone();
        let at = ((flipped.len() as f64 * flip_frac) as usize).min(flipped.len() - 1);
        flipped[at] ^= 1 << bit;
        let mut pos = 0usize;
        let _ = lcr_compress::huffman::decode_block(&flipped, &mut pos);
    }

    #[test]
    fn truncated_zfp_streams_error_not_panic(
        data in prop::collection::vec(-1.0e3f64..1.0e3, 1..300),
        cut_frac in 0.0f64..1.0,
    ) {
        let zfp = ZfpCompressor::new();
        let compressed = zfp.compress(&data, ErrorBound::Abs(1e-4)).unwrap();
        let cut = ((compressed.bytes.len() as f64 * cut_frac) as usize)
            .min(compressed.bytes.len() - 1);
        let truncated = lcr_compress::Compressed {
            bytes: compressed.bytes[..cut].to_vec(),
            n_elements: compressed.n_elements,
        };
        prop_assert!(zfp.decompress(&truncated).is_err());
    }
}

// ---- temporal delta chains (stream v5) ---------------------------------

/// Builds the v5 delta chain for a snapshot sequence: anchor first, then
/// delta (or direct, if delta would be larger) streams in order.
fn temporal_chain(
    snaps: &[Vec<f64>],
    bound: ErrorBound,
    max_order: lcr_compress::DeltaMode,
) -> Vec<lcr_compress::Compressed> {
    let sz = SzCompressor::new();
    let mut state = lcr_compress::SzTemporalState::new();
    snaps
        .iter()
        .enumerate()
        .map(|(k, snap)| {
            let mut bytes = Vec::new();
            sz.compress_temporal_into(snap, bound, max_order, k == 0, &mut state, &mut bytes)
                .unwrap();
            lcr_compress::Compressed {
                bytes,
                n_elements: snap.len(),
            }
        })
        .collect()
}

/// Snapshot sequences as proptest input: a base array plus per-snapshot
/// perturbations scaled by `drift`, so consecutive snapshots correlate.
fn snapshot_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        prop::collection::vec(-1.0e2f64..1.0e2, 1..300),
        2usize..5,
        -6i32..-1,
    )
        .prop_map(|(base, count, drift_exp)| {
            let drift = 10f64.powi(drift_exp);
            (0..count)
                .map(|k| {
                    base.iter()
                        .enumerate()
                        .map(|(i, &v)| v + drift * (k * (i % 13 + 1)) as f64)
                        .collect()
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole restart-bit-identity guarantee: replaying a delta
    /// chain reconstructs the final snapshot bit-identically to a direct
    /// (stateless, anchor-only) decode of the same snapshot — for every
    /// bound mode and delta order, at any thread count (CI runs this
    /// suite at LCR_NUM_THREADS=1 and 4).
    #[test]
    fn delta_chain_replay_matches_direct_decode_bitwise(
        snaps in snapshot_strategy(),
        exp in -8i32..-2,
        order2 in any::<bool>(),
    ) {
        let eb = 10f64.powi(exp);
        let max_order = if order2 {
            lcr_compress::DeltaMode::Order2
        } else {
            lcr_compress::DeltaMode::Order1
        };
        let sz = SzCompressor::new();
        for bound in [
            ErrorBound::Abs(eb),
            ErrorBound::PointwiseRel(eb),
            ErrorBound::ValueRangeRel(eb),
        ] {
            let chain = temporal_chain(&snaps, bound, max_order);
            for k in 0..chain.len() {
                let replayed = sz.decompress_chain(&chain[..=k]).unwrap();
                let direct = sz
                    .decompress(&sz.compress(&snaps[k], bound).unwrap())
                    .unwrap();
                prop_assert_eq!(replayed.len(), direct.len());
                for (a, b) in replayed.iter().zip(direct.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    /// Corrupt delta chains must error (or decode to garbage values) —
    /// never panic, never over-allocate.
    #[test]
    fn corrupt_delta_chains_never_panic(
        snaps in snapshot_strategy(),
        cut_frac in 0.0f64..1.0,
        bit in 0u8..8,
        corrupt_link_frac in 0.0f64..1.0,
    ) {
        let sz = SzCompressor::new();
        let mut chain = temporal_chain(
            &snaps,
            ErrorBound::Abs(1e-6),
            lcr_compress::DeltaMode::Order2,
        );
        let link = ((chain.len() as f64 * corrupt_link_frac) as usize).min(chain.len() - 1);

        // Truncating any link makes the whole chain undecodable.
        let mut truncated = chain.clone();
        let cut = ((truncated[link].bytes.len() as f64 * cut_frac) as usize)
            .min(truncated[link].bytes.len() - 1);
        truncated[link].bytes.truncate(cut);
        prop_assert!(sz.decompress_chain(&truncated).is_err());

        // A flipped bit may or may not be detected (no checksum at this
        // layer — the disk tier CRCs whole files) but must never panic.
        let pos = cut.min(chain[link].bytes.len() - 1);
        chain[link].bytes[pos] ^= 1 << bit;
        let _ = sz.decompress_chain(&chain);
    }
}

/// A corrupt length field must fail fast, not allocate proportionally to
/// the claimed (attacker-controlled) size.
#[test]
fn corrupt_sz_length_fields_do_not_overallocate() {
    let sz = SzCompressor::new();
    let data: Vec<f64> = (0..64).map(|i| i as f64 * 0.25).collect();
    let c = sz.compress(&data, ErrorBound::Abs(1e-6)).unwrap();

    // Patch the log-side-channel/unpredictable length region: overwrite
    // every u64-sized window with a huge value and check nothing blows up.
    for start in 0..c.bytes.len().saturating_sub(8) {
        let mut evil = c.clone();
        evil.bytes[start..start + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let _ = sz.decompress(&evil);
    }
}
