//! Packed binary encoding for measurement rows.
//!
//! JSON entries spend most of their bytes (and parse time) on the
//! `samples` array — thousands of small objects per entry. The binary
//! entry container keeps the JSON header for everything structural
//! (signature, forest, rules) and stores the measurement rows as fixed
//! 28-byte records instead:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "ROWS"
//! 4       8     row count (u64 LE)
//! 12      28*n  records: nodes u32 | ppn u32 | msg_bytes u64 |
//!               algorithm u32 (index into Algorithm::ALL) |
//!               time_us f64 (IEEE-754 bits, LE)
//! 12+28n  8     FNV-1a checksum over every preceding byte (u64 LE)
//! ```
//!
//! Times round-trip through `f64::to_bits`, so decoded rows are
//! bit-identical to what was written — the same guarantee the JSON
//! path gets from shortest-roundtrip float printing. Decoding is
//! strict: a bad magic, a count that disagrees with the block length,
//! an unknown algorithm index, a zero node, ppn or message size, or a
//! checksum mismatch all read as corrupt (`None`), never as a partial row set.

use acclaim_collectives::Algorithm;
use acclaim_core::TrainingSample;
use acclaim_dataset::Point;

/// Leading magic of an encoded row block.
pub(crate) const ROWS_MAGIC: [u8; 4] = *b"ROWS";
const RECORD_BYTES: usize = 28;
const HEADER_BYTES: usize = 12;
const CHECKSUM_BYTES: usize = 8;

/// FNV-1a over a byte slice; the checksum at the end of every block.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn algorithm_index(a: Algorithm) -> u32 {
    Algorithm::ALL
        .iter()
        .position(|&x| x == a)
        .expect("every algorithm is in Algorithm::ALL") as u32
}

/// Encode `samples` into a self-checking binary block.
pub(crate) fn encode_rows(samples: &[TrainingSample]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + samples.len() * RECORD_BYTES + CHECKSUM_BYTES);
    out.extend_from_slice(&ROWS_MAGIC);
    out.extend_from_slice(&(samples.len() as u64).to_le_bytes());
    for s in samples {
        out.extend_from_slice(&s.point.nodes.to_le_bytes());
        out.extend_from_slice(&s.point.ppn.to_le_bytes());
        out.extend_from_slice(&s.point.msg_bytes.to_le_bytes());
        out.extend_from_slice(&algorithm_index(s.algorithm).to_le_bytes());
        out.extend_from_slice(&s.time_us.to_bits().to_le_bytes());
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("bounds checked"))
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("bounds checked"))
}

/// Decode a block produced by [`encode_rows`]; `None` on any damage.
pub(crate) fn decode_rows(block: &[u8]) -> Option<Vec<TrainingSample>> {
    if block.len() < HEADER_BYTES + CHECKSUM_BYTES || block[..4] != ROWS_MAGIC {
        return None;
    }
    let body = &block[..block.len() - CHECKSUM_BYTES];
    let stored = read_u64(block, block.len() - CHECKSUM_BYTES);
    if fnv1a(body) != stored {
        return None;
    }
    let count = read_u64(block, 4);
    let expected = (count as usize).checked_mul(RECORD_BYTES)?;
    if body.len() != HEADER_BYTES + expected {
        return None;
    }
    let mut samples = Vec::with_capacity(count as usize);
    let mut at = HEADER_BYTES;
    for _ in 0..count {
        let nodes = read_u32(body, at);
        let ppn = read_u32(body, at + 4);
        let msg_bytes = read_u64(body, at + 8);
        // The checksum catches accidental damage only; a zero axis
        // would fail `Point::new`'s assertion, so it reads as corrupt.
        if nodes == 0 || ppn == 0 || msg_bytes == 0 {
            return None;
        }
        let algorithm = *Algorithm::ALL.get(read_u32(body, at + 16) as usize)?;
        let time_us = f64::from_bits(read_u64(body, at + 20));
        samples.push(TrainingSample {
            point: Point::new(nodes, ppn, msg_bytes),
            algorithm,
            time_us,
        });
        at += RECORD_BYTES;
    }
    Some(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acclaim_collectives::Collective;

    fn rows() -> Vec<TrainingSample> {
        let algorithms = Collective::Bcast.algorithms();
        (0u32..50)
            .map(|i| TrainingSample {
                point: Point::new(2 + i % 7, 1 + i % 4, 64u64 << (i % 12)),
                algorithm: algorithms[(i as usize) % algorithms.len()],
                time_us: 10.0 + f64::from(i) * 0.7,
            })
            .collect()
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let original = rows();
        let decoded = decode_rows(&encode_rows(&original)).unwrap();
        assert_eq!(original.len(), decoded.len());
        for (a, b) in original.iter().zip(&decoded) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.algorithm, b.algorithm);
            assert_eq!(a.time_us.to_bits(), b.time_us.to_bits());
        }
    }

    #[test]
    fn empty_block_roundtrips() {
        assert_eq!(decode_rows(&encode_rows(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let block = encode_rows(&rows()[..4]);
        for i in 0..block.len() {
            let mut bad = block.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_rows(&bad).is_none(),
                "flip at byte {i} went undetected"
            );
        }
    }

    /// A row whose checksum is valid but whose point has a zero axis
    /// reads as corrupt instead of panicking in `Point::new`.
    #[test]
    fn checksummed_row_with_a_zero_axis_is_corrupt() {
        for (nodes, ppn, msg_bytes) in [(0u32, 1u32, 64u64), (2, 0, 64), (2, 1, 0)] {
            let mut block = ROWS_MAGIC.to_vec();
            block.extend_from_slice(&1u64.to_le_bytes());
            block.extend_from_slice(&nodes.to_le_bytes());
            block.extend_from_slice(&ppn.to_le_bytes());
            block.extend_from_slice(&msg_bytes.to_le_bytes());
            block.extend_from_slice(&0u32.to_le_bytes());
            block.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
            let checksum = fnv1a(&block);
            block.extend_from_slice(&checksum.to_le_bytes());
            assert!(decode_rows(&block).is_none(), "{nodes}x{ppn}x{msg_bytes}");
        }
    }

    #[test]
    fn truncation_and_padding_are_detected() {
        let block = encode_rows(&rows());
        for cut in [1, 8, 28, block.len() - 1] {
            assert!(decode_rows(&block[..block.len() - cut]).is_none());
        }
        let mut padded = block.clone();
        padded.push(0);
        assert!(decode_rows(&padded).is_none());
        assert!(decode_rows(&[]).is_none());
    }
}
