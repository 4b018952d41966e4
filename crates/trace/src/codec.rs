//! Byte-level primitives of the trace format: LEB128 varints, zigzag
//! signed mapping, and CRC-32 chunk checksums.

use crate::TraceError;

/// Why a record decode stopped. Unlike [`TraceError`] it is `Copy` and
/// has no drop glue, so a `?` in the per-byte decode loop costs nothing
/// on the success path; it becomes a [`TraceError`] once, at the chunk
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Data ended early: [`TraceError::Truncated`].
    Truncated,
    /// Structurally invalid data: [`TraceError::Corrupt`].
    Corrupt(&'static str),
}

impl From<DecodeError> for TraceError {
    fn from(e: DecodeError) -> TraceError {
        match e {
            DecodeError::Truncated => TraceError::Truncated,
            DecodeError::Corrupt(reason) => TraceError::Corrupt(reason),
        }
    }
}

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = more).
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint at `*pos`, advancing it.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    // Fast path: the delta encoding makes single-byte varints by far the
    // most common case on real traces.
    let &first = buf.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    if first < 0x80 {
        return Ok(first as u64);
    }
    let mut v = (first & 0x7F) as u64;
    let mut shift = 7u32;
    loop {
        let &byte = buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(DecodeError::Corrupt("varint overflows u64"));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Maps a signed delta onto an unsigned varint-friendly value
/// (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Slice-by-8 lookup tables: `TABLES[k][b]` is the CRC contribution of
/// byte `b` positioned `k` bytes before the end of an 8-byte group.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = crc_table();
    let mut i = 0;
    while i < 256 {
        let mut c = tables[0][i];
        let mut k = 1;
        while k < 8 {
            c = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            tables[k][i] = c;
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`, eight bytes per step
/// (slice-by-8) — chunk checksums sit on the trace load/verify path, so
/// byte-at-a-time table lookup would dominate decode cost.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut groups = bytes.chunks_exact(8);
    for g in &mut groups {
        let lo = u32::from_le_bytes([g[0], g[1], g[2], g[3]]) ^ c;
        let hi = u32::from_le_bytes([g[4], g[5], g[6], g[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in groups.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// `mat · vec` over GF(2): the XOR of the columns of `mat` selected by
/// the set bits of `vec`.
fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    for col in mat {
        if vec == 0 {
            break;
        }
        if vec & 1 != 0 {
            sum ^= col;
        }
        vec >>= 1;
    }
    sum
}

fn gf2_square(mat: &[u32; 32]) -> [u32; 32] {
    std::array::from_fn(|n| gf2_times(mat, mat[n]))
}

/// CRC-32 of `a ++ b` from `crc32(a)`, `crc32(b)` and `b.len()`, without
/// touching the bytes (zlib's `crc32_combine`, GF(2) matrix method).
/// Costs O(log `len_b`) 32×32 bit-matrix squarings, so segments of one
/// buffer can be checksummed on separate threads and joined exactly.
pub fn crc32_combine(crc_a: u32, crc_b: u32, mut len_b: u64) -> u32 {
    // The operator that feeds one zero bit through the CRC register:
    // shift right, XOR in the polynomial when a one falls out.
    let mut op = [0u32; 32];
    op[0] = 0xEDB8_8320;
    for (n, col) in op.iter_mut().enumerate().skip(1) {
        *col = 1 << (n - 1);
    }
    // Squared three times: one zero byte. Then square-and-multiply over
    // the bits of `len_b` appends `len_b` zero bytes to `a`'s register.
    for _ in 0..3 {
        op = gf2_square(&op);
    }
    let mut crc = crc_a;
    while len_b != 0 {
        if len_b & 1 != 0 {
            crc = gf2_times(&op, crc);
        }
        len_b >>= 1;
        if len_b != 0 {
            op = gf2_square(&op);
        }
    }
    crc ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let samples = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &samples {
            buf.clear();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert!(matches!(
            read_varint(&[0x80, 0x80], &mut pos),
            Err(DecodeError::Truncated)
        ));
        // 11 continuation bytes: more than 64 bits of payload.
        let overlong = [0xFFu8; 10];
        let mut pos = 0;
        assert!(read_varint(&overlong, &mut pos).is_err());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn crc32_slice_by_8_agrees_with_byte_at_a_time() {
        fn reference(bytes: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        }
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 63, 64, 255, 1024] {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Splitting any input anywhere, including at 0 and at its
        /// length, and combining the two halves' CRCs gives the CRC of
        /// the whole.
        #[test]
        fn crc32_combine_joins_any_split(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2_000),
            at in 0..1_001u64,
        ) {
            let split = (at as usize * bytes.len()) / 1_000;
            let (a, b) = bytes.split_at(split);
            proptest::prop_assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                crc32(&bytes)
            );
        }
    }
}
