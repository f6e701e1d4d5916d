//! Byte-level goldens of the one SZ stream format (version 5).
//!
//! The fingerprints were recorded from `compress_temporal_into`: two
//! forced anchors (an `Abs` and a `PointwiseRel` stream) and one order-1
//! delta link.  Any change to the quantizer, the Huffman table layout, the
//! block container or the header must reproduce them bit for bit, both the
//! encoded bytes and the decoded values.
//!
//! The stateless `compress` is the one-link case of the same writer: it
//! must emit exactly the anchor bytes.  Streams stamped with a retired
//! version number (SZ 3 and 4, ZFP 2) are rejected as corrupt.

use lossy_ckpt::compress::{
    CompressError, Compressed, DeltaMode, ErrorBound, LossyCompressor, SzCompressor,
    SzTemporalState, ZfpCompressor,
};

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the IEEE-754 bit patterns, in order.
fn fingerprint(values: &[f64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// 70,000 elements: two SZ blocks (65,536 + 4,464).  A smooth wave that
/// crosses zero plus a rough term, with exact zeros and a few huge values
/// that the quantizer must store verbatim.  `step` drifts the smooth part
/// so consecutive snapshots correlate the way solver iterates do.
fn snapshot(step: u32) -> Vec<f64> {
    let n = 70_000;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|i| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let rough =
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
            let t = i as f64 / n as f64;
            let drift = 1e-4 * f64::from(step + 1) * (5.0 * std::f64::consts::PI * t).cos();
            if i % 997 == 0 {
                0.0
            } else if i % 4001 == 0 {
                -1e300
            } else {
                (2.0 * std::f64::consts::PI * t).sin() + 1e-3 * rough + drift
            }
        })
        .collect()
}

fn anchor(data: &[f64], bound: ErrorBound) -> Vec<u8> {
    let mut out = Vec::new();
    let mode = SzCompressor::new()
        .compress_temporal_into(
            data,
            bound,
            DeltaMode::Order1,
            true,
            &mut SzTemporalState::default(),
            &mut out,
        )
        .unwrap();
    assert_eq!(mode, DeltaMode::None);
    out
}

fn compressed(bytes: Vec<u8>, n: usize) -> Compressed {
    Compressed {
        bytes,
        n_elements: n,
    }
}

#[test]
fn abs_anchor_bytes_and_values_are_pinned() {
    let data = snapshot(0);
    let bytes = anchor(&data, ErrorBound::Abs(1e-6));
    assert_eq!(&bytes[..2], &[1, 5], "codec 1, version 5");
    assert_eq!(bytes.len(), 96_996);
    assert_eq!(fnv1a(bytes.iter().copied()), 0xc3d1_f1f8_7bed_106a);
    let values = SzCompressor::new()
        .decompress(&compressed(bytes, data.len()))
        .unwrap();
    assert_eq!(fingerprint(&values), 0x6384_302b_0092_58b4);
}

#[test]
fn pointwise_rel_anchor_bytes_and_values_are_pinned() {
    let data = snapshot(0);
    let bytes = anchor(&data, ErrorBound::PointwiseRel(1e-4));
    assert_eq!(bytes.len(), 66_467);
    assert_eq!(fnv1a(bytes.iter().copied()), 0xb0bb_0114_e1e8_8f63);
    let values = SzCompressor::new()
        .decompress(&compressed(bytes, data.len()))
        .unwrap();
    assert_eq!(fingerprint(&values), 0x604e_1301_459c_d152);
}

#[test]
fn order1_delta_link_bytes_and_values_are_pinned() {
    let sz = SzCompressor::new();
    let bound = ErrorBound::Abs(1e-6);
    let (first, second) = (snapshot(0), snapshot(1));
    let mut state = SzTemporalState::default();
    let mut head = Vec::new();
    sz.compress_temporal_into(
        &first,
        bound,
        DeltaMode::Order1,
        true,
        &mut state,
        &mut head,
    )
    .unwrap();
    let mut link = Vec::new();
    let mode = sz
        .compress_temporal_into(
            &second,
            bound,
            DeltaMode::Order1,
            false,
            &mut state,
            &mut link,
        )
        .unwrap();
    assert_eq!(mode, DeltaMode::Order1);
    assert_eq!(link.len(), 19_888);
    assert_eq!(fnv1a(link.iter().copied()), 0xcffd_1e20_4b6c_330c);
    let chain = [
        compressed(head, first.len()),
        compressed(link, second.len()),
    ];
    let values = sz.decompress_chain(&chain).unwrap();
    assert_eq!(fingerprint(&values), 0xdbb3_1371_2d79_04a2);
}

#[test]
fn stateless_compress_emits_the_anchor_bytes() {
    let sz = SzCompressor::new();
    let data = snapshot(0);
    for bound in [
        ErrorBound::Abs(1e-6),
        ErrorBound::ValueRangeRel(1e-5),
        ErrorBound::PointwiseRel(1e-4),
    ] {
        for n in [0, 1, 2, 3, 11, 65_536, data.len()] {
            let stateless = sz.compress(&data[..n], bound).unwrap();
            assert_eq!(
                stateless.bytes,
                anchor(&data[..n], bound),
                "{bound:?}, {n} elements"
            );
            let mut appended = vec![0xAB];
            sz.compress_into(&data[..n], bound, &mut appended).unwrap();
            assert_eq!(&appended[1..], stateless.bytes.as_slice());
        }
    }
}

#[test]
fn retired_sz_versions_are_corrupt() {
    let sz = SzCompressor::new();
    let data = snapshot(0);
    for bound in [ErrorBound::Abs(1e-6), ErrorBound::PointwiseRel(1e-4)] {
        let good = compressed(anchor(&data, bound), data.len());
        for version in [0u8, 3, 4, 6] {
            let mut patched = good.clone();
            patched.bytes[1] = version;
            assert!(
                matches!(sz.decompress(&patched), Err(CompressError::Corrupt(_))),
                "{bound:?}: version {version} must be corrupt"
            );
            assert!(matches!(
                sz.decompress_chain(std::slice::from_ref(&patched)),
                Err(CompressError::Corrupt(_))
            ));
        }
    }
}

#[test]
fn retired_zfp_version_is_corrupt() {
    let zfp = ZfpCompressor::new();
    let data = snapshot(0);
    let good = zfp.compress(&data, ErrorBound::Abs(1e-6)).unwrap();
    assert_eq!(good.bytes[1], 3);
    for version in [0u8, 2, 4] {
        let mut patched = good.clone();
        patched.bytes[1] = version;
        assert!(
            matches!(zfp.decompress(&patched), Err(CompressError::Corrupt(_))),
            "ZFP version {version} must be corrupt"
        );
    }
}
