//! CRC-32 (IEEE 802.3) — integrity check for capsules, log records,
//! snapshots, manifests and the superblock; reflected polynomial
//! 0xEDB88320, in-tree to keep the workspace within the approved
//! dependency set. [`crc32_update`] is slicing-by-16: sixteen compile-time
//! tables fold sixteen bytes into the state per step, then a bytewise
//! tail. [`crc32_shift`] feeds `n` zero bytes in O(log n) by multiplying
//! the state by `x^(8n) mod P` in GF(2)\[x\] (zlib's `crc32_combine`).

/// The reflected CRC-32 polynomial `P`.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is
/// `TABLES[0][b]` carried through `k` more zero bytes.
static TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut k = 0;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let mut c = if k == 0 { i as u32 } else { t[k - 1][i] };
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
                bit += 1;
            }
            t[k][i] = c;
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update: feed `state` (start from `0xFFFF_FFFF`, finish by
/// XOR-ing with `0xFFFF_FFFF`).
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = state;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // The state overlaps the block's first four bytes; byte `i` then
        // sits `15 - i` bytes before the block's end.
        let s = c.to_le_bytes();
        c = 0;
        for (i, &byte) in b.iter().enumerate() {
            let x = if i < 4 { byte ^ s[i] } else { byte };
            c ^= t[15 - i][usize::from(x)];
        }
    }
    for &byte in blocks.remainder() {
        c = t[0][usize::from(byte ^ c as u8)] ^ (c >> 8);
    }
    c
}

/// `a · b mod P` over GF(2), in the reflected bit order (bit 31 is `x^0`).
/// `a` must be non-zero.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[k] = x^(2^k) mod P`. The powers repeat with period 32, because
/// the order of `x` modulo `P` divides `2^32 - 1`.
const X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    t[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 32 {
        t[k] = multmodp(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// Advance a CRC `state` (the streaming form of [`crc32_update`]) through
/// `len` zero bytes in O(log len): feeding zeros multiplies the state by
/// `x^(8·len) mod P`, the product of `X2N` over the set bits of `8·len`.
pub fn crc32_shift(state: u32, len: u64) -> u32 {
    let xn = (0..64)
        .filter(|j| (len >> j) & 1 != 0)
        .fold(1 << 31, |p, j| multmodp(X2N[(j + 3) % 32], p));
    multmodp(xn, state)
}

/// CRC-32 of the concatenation `a ‖ b` from the two pieces' checksums:
/// `crc32(a ‖ b) = crc32_shift(crc32(a), len_b) ^ crc32(b)`. Lets callers
/// checksum each payload once and still derive checksums of merged
/// extents without re-reading the bytes.
pub fn crc32_concat(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    crc32_shift(crc_a, len_b) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition `crc32_update` must reproduce: one byte at a time,
    /// each byte's table entry computed bit by bit, so the reference shares
    /// nothing with [`TABLES`].
    fn crc32_update_bytewise(state: u32, data: &[u8]) -> u32 {
        data.iter().fold(state, |c, &b| {
            (0..8).fold(c ^ u32::from(b), |c, _| {
                if c & 1 != 0 {
                    POLY ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        })
    }

    /// `len` bytes of the splitmix64 stream started at `seed`.
    fn splitmix_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        (0..len.div_ceil(8))
            .flat_map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)).to_le_bytes()
            })
            .take(len)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Literals from an independent implementation (a bytewise table CRC
    /// and a GF(2) 32×32 matrix-power shift): wire and on-disk checksums
    /// written by any build must keep verifying.
    #[test]
    fn pinned_values() {
        assert_eq!(crc32(&splitmix_bytes(0x5EED, 1 << 20)), 0x94C1_D118);
        for (len, want) in [
            (4u64 << 10, 0xD974_FC6E),
            (32 << 10, 0x5233_8531),
            (1 << 20, 0x122B_CDB0),
            (1 << 40, 0xAD95_D5FE),
        ] {
            assert_eq!(crc32_shift(0x1234_5678, len), want, "len {len}");
        }
    }

    /// Every length up to 4200 (each residue mod 16 many times over),
    /// against the reference advanced one byte at a time.
    #[test]
    fn sliced_matches_bytewise_at_every_length() {
        let data = splitmix_bytes(7, 4200);
        let mut reference = 0xFFFF_FFFF;
        for len in 0..=data.len() {
            assert_eq!(
                crc32_update(0xFFFF_FFFF, &data[..len]),
                reference,
                "len {len}"
            );
            if let Some(&b) = data.get(len) {
                reference = crc32_update_bytewise(reference, &[b]);
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"metadata provenance log record";
        let split = 10;
        let mut st = 0xFFFF_FFFFu32;
        st = crc32_update(st, &data[..split]);
        st = crc32_update(st, &data[split..]);
        assert_eq!(st ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn shift_matches_feeding_zero_bytes() {
        for len in [0u64, 1, 2, 7, 8, 63, 64, 255, 4096] {
            let state = crc32_update(0xFFFF_FFFF, b"seed bytes");
            let zeros = vec![0u8; len as usize];
            assert_eq!(
                crc32_shift(state, len),
                crc32_update(state, &zeros),
                "len {len}"
            );
        }
    }

    #[test]
    fn concat_matches_one_shot() {
        let a = b"first extent contents";
        let b = b"and the adjacent one";
        let mut joined = a.to_vec();
        joined.extend_from_slice(b);
        assert_eq!(
            crc32_concat(crc32(a), crc32(b), b.len() as u64),
            crc32(&joined)
        );
    }

    proptest! {
        /// Shifting a state through `n` zero bytes equals feeding them.
        #[test]
        fn prop_shift_equals_zero_feed(
            seed in proptest::collection::vec(any::<u8>(), 0..64),
            len in 0u64..(64 << 10) + 1,
        ) {
            let state = crc32_update(0xFFFF_FFFF, &seed);
            let zeros = vec![0u8; len as usize];
            prop_assert_eq!(crc32_shift(state, len), crc32_update(state, &zeros));
        }

        /// Shifting by `a` then `b` zero bytes is shifting by `a + b`, far
        /// past any length zero-feeding could check.
        #[test]
        fn prop_shift_is_additive(
            state in any::<u32>(),
            a in 0u64..(1 << 40) + 1,
            b in 0u64..(1 << 40) + 1,
        ) {
            prop_assert_eq!(crc32_shift(crc32_shift(state, a), b), crc32_shift(state, a + b));
        }

        /// Slicing-by-16 equals the bytewise reference from any state, on
        /// sub-slices starting at every alignment.
        #[test]
        fn prop_sliced_matches_bytewise(
            seed in any::<u64>(),
            state in any::<u32>(),
            start in 0usize..16,
            len in 0usize..4201,
        ) {
            let buf = splitmix_bytes(seed, start + len);
            prop_assert_eq!(
                crc32_update(state, &buf[start..]),
                crc32_update_bytewise(state, &buf[start..])
            );
        }

        /// Streaming through random split points equals one pass.
        #[test]
        fn prop_streaming_splits_match_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..4201),
            mut cuts in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            for c in &mut cuts {
                *c %= data.len() + 1;
            }
            cuts.sort_unstable();
            let mut st = 0xFFFF_FFFF;
            let mut at = 0;
            for &c in cuts.iter().chain([data.len()].iter()) {
                st = crc32_update(st, &data[at..c]);
                at = c;
            }
            prop_assert_eq!(st, crc32_update_bytewise(0xFFFF_FFFF, &data));
        }

        /// Concatenation identity over arbitrary splits.
        #[test]
        fn prop_concat_equals_one_shot(
            a in proptest::collection::vec(any::<u8>(), 0..512),
            b in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let mut joined = a.clone();
            joined.extend_from_slice(&b);
            prop_assert_eq!(
                crc32_concat(crc32(&a), crc32(&b), b.len() as u64),
                crc32(&joined)
            );
        }

        /// Any single-bit flip changes the checksum.
        #[test]
        fn prop_detects_bit_flips(
            mut data in proptest::collection::vec(any::<u8>(), 1..256),
            bit in 0usize..8,
            idx_seed in any::<u64>(),
        ) {
            let original = crc32(&data);
            let idx = (idx_seed as usize) % data.len();
            data[idx] ^= 1 << bit;
            prop_assert_ne!(crc32(&data), original);
        }
    }
}
