//! `lcr_ckpt::disk::crc32` against a bytewise IEEE CRC-32 oracle.
//!
//! The checkpoint format stores CRC-32 values for its metadata block and
//! every payload, so the checksum routine must return exactly the values
//! of the reference algorithm on every length, alignment and tail size.
//! The golden at the bottom pins a whole checkpoint file: if any stored
//! checksum (or any other file byte) moves, it fails.

use lossy_ckpt::ckpt::disk::crc32;
use lossy_ckpt::ckpt::{CheckpointBuffer, CheckpointLevel, DiskStore};
use proptest::prelude::*;

/// The textbook byte-at-a-time CRC-32 (reflected polynomial 0xEDB88320),
/// computed bit by bit so it shares no table with the code under test.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Deterministic filler bytes (64-bit LCG, high byte).
fn filler(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (s >> 56) as u8
        })
        .collect()
}

#[test]
fn known_vectors() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn every_length_residue_and_alignment_matches_the_reference() {
    let data = filler(16 + 3 * 16 + 16, 7);
    for offset in 0..16 {
        for len in 0..=3 * 16 + 15 {
            let slice = &data[offset..offset + len];
            assert_eq!(
                crc32(slice),
                reference_crc32(slice),
                "offset {offset}, length {len}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn crc32_matches_bytewise_reference_on_unaligned_slices(
        data in prop::collection::vec(0u8..=255, 0..=4096 + 16),
        start in 0usize..16,
        len in 0usize..=4096,
    ) {
        let start = start.min(data.len());
        let end = (start + len).min(data.len());
        let slice = &data[start..end];
        prop_assert_eq!(crc32(slice), reference_crc32(slice));
    }
}

/// CRC-32 of the complete file `DiskStore::push_from_buffer` writes for
/// the fixed checkpoint below, recorded with the bytewise implementation.
const GOLDEN_FILE_CRC: u32 = 0xC686_3A85;
/// Length of that file in bytes.
const GOLDEN_FILE_LEN: usize = 104_254;

#[test]
fn checkpoint_file_bytes_match_the_golden() {
    let dir = std::env::temp_dir().join(format!("lcr-crc-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DiskStore::open(&dir, 1).unwrap();
    let mut buffer = CheckpointBuffer::new();
    buffer.push_with("x", |out| out.extend_from_slice(&filler(100_003, 1)));
    buffer.push_with("r", |out| out.extend_from_slice(&filler(4_099, 2)));
    buffer.push_with("empty", |_| ());
    store
        .push_from_buffer(
            42,
            1.5,
            CheckpointLevel::Pfs,
            800_024,
            None,
            "traditional",
            &[("rho".to_string(), 0.25), ("alpha".to_string(), -3.5)],
            &buffer,
        )
        .unwrap();
    drop(store);

    let bytes = std::fs::read(dir.join("ckpt-0000000000.lcr")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(bytes.len(), GOLDEN_FILE_LEN);
    assert_eq!(reference_crc32(&bytes), GOLDEN_FILE_CRC, "file bytes moved");
    assert_eq!(crc32(&bytes), GOLDEN_FILE_CRC);
}
