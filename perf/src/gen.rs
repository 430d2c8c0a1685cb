//! Seeded input generation: every byte the benchmark writes and every
//! choice it makes (dirty chunks, file order) is a function of `--seed`.

/// One step of the splitmix64 generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent stream key from the run seed and up to three
/// coordinates (rank, round, purpose).
pub fn key(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut s = seed ^ 0x6E76_6D65_6372_7066; // "nvmecrpf"
    for v in [a, b, c] {
        s = splitmix64(&mut s) ^ v.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    }
    splitmix64(&mut s)
}

/// Fill `buf` with the byte stream of `key`.
pub fn fill(buf: &mut [u8], key: u64) {
    let mut s = key;
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&splitmix64(&mut s).to_le_bytes());
    }
    let tail = chunks.into_remainder();
    let last = splitmix64(&mut s).to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
}

/// Granularity of [`stamp`]: the smallest filesystem block any workload
/// uses, so every block of a stamped buffer differs from the same block
/// under another key.
pub const STAMP_PAGE: usize = 4096;

/// Overwrite the first 8 bytes of every [`STAMP_PAGE`] of `buf` with a
/// value derived from `key` and the page index. Re-stamping a filled
/// buffer gives each checkpoint round distinct contents in every block
/// for ~1/500 of the cost of refilling it, so payload generation stays a
/// negligible share of a run. The stamp of one key fully replaces the
/// stamp of another.
pub fn stamp(buf: &mut [u8], key: u64) {
    for (i, page) in buf.chunks_mut(STAMP_PAGE).enumerate() {
        let mut s = key ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        let v = splitmix64(&mut s).to_le_bytes();
        let n = page.len().min(8);
        page[..n].copy_from_slice(&v[..n]);
    }
}

/// Fisher–Yates shuffle driven by `key`.
pub fn shuffle<T>(items: &mut [T], key: u64) {
    let mut s = key;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut s) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// `k` distinct indices out of `0..n`, ascending.
pub fn choose(n: usize, k: usize, key: u64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    shuffle(&mut all, key);
    all.truncate(k.min(n));
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_bytes_other_key_other_bytes() {
        let mut a = vec![0u8; 4099];
        let mut b = vec![0u8; 4099];
        let mut c = vec![0u8; 4099];
        fill(&mut a, key(1, 3, 0, 0));
        fill(&mut b, key(1, 3, 0, 0));
        fill(&mut c, key(2, 3, 0, 0));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a[4096..], [0, 0, 0], "tail bytes are generated too");
    }

    #[test]
    fn stamp_changes_every_page_and_replaces_the_previous_stamp() {
        let mut base = vec![0u8; 3 * STAMP_PAGE + 5];
        fill(&mut base, 7);
        let mut r1 = base.clone();
        stamp(&mut r1, 1);
        let mut r2 = r1.clone();
        stamp(&mut r2, 2);
        for (p1, p2) in r1.chunks(STAMP_PAGE).zip(r2.chunks(STAMP_PAGE)) {
            assert_ne!(p1, p2);
        }
        let mut direct = base.clone();
        stamp(&mut direct, 2);
        assert_eq!(r2, direct);
    }

    #[test]
    fn choose_is_distinct_sorted_and_seeded() {
        let a = choose(16, 2, 11);
        assert_eq!(a.len(), 2);
        assert!(a[0] < a[1] && a[1] < 16);
        assert_eq!(a, choose(16, 2, 11));
        let differs = (0..32).any(|k| choose(16, 2, k) != a);
        assert!(differs);
    }
}
