//! Word-wise page-scan kernels.
//!
//! Three hot paths probe page contents byte by byte at fleet scale: zero-page
//! detection (wire encode and `ZeroRun` coalescing in `rvisor-migrate`, the
//! KSM zero-page policy), content fingerprinting (KSM stable/unstable trees,
//! dedup analysis), and checksumming. A byte-at-a-time loop leaves most of a
//! 64-bit datapath idle; the kernels here read guest pages as little-endian
//! `u64` words instead:
//!
//! * [`is_zero`] folds a full 64-byte cache line per iteration as two
//!   independent 32-byte OR lanes (the lanes carry no dependency between
//!   them, so the loads dual-issue) and early-exits on the first non-zero
//!   line — a touched page is rejected within its first cache lines, an
//!   untouched page is confirmed at close to memory bandwidth.
//! * [`fingerprint`] keeps the exact FNV-1a byte recurrence (so every stored
//!   fingerprint, KSM merge decision and test vector stays valid) but feeds
//!   it from two 8-byte loads per iteration instead of sixteen
//!   bounds-checked byte loads: the multiply chain stays serial by
//!   definition, the memory traffic does not.
//! * `checksum_term` (crate-private) computes one page's share of the
//!   positional [`GuestMemory::checksum`](crate::GuestMemory::checksum)
//!   without a per-byte multiply: even and odd byte lanes fold into four `u16` lanes
//!   that share the weights 1, 3, 5, 7, and Adler-style running sums stand
//!   in for the per-word position weight.
//!
//! All kernels accept arbitrary slices: the tail that does not fill a word
//! is handled byte-wise, and equivalence with the byte-wise reference
//! implementations — including misaligned slice starts and ragged tails —
//! is pinned by proptest below.

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// OR together one 32-byte lane (four `u64` words).
#[inline(always)]
fn or_lane(lane: &[u8]) -> u64 {
    let a = u64::from_le_bytes(lane[0..8].try_into().expect("8-byte chunk"));
    let b = u64::from_le_bytes(lane[8..16].try_into().expect("8-byte chunk"));
    let c = u64::from_le_bytes(lane[16..24].try_into().expect("8-byte chunk"));
    let d = u64::from_le_bytes(lane[24..32].try_into().expect("8-byte chunk"));
    a | b | c | d
}

/// Returns true when every byte of the slice is zero (word-wise scan).
///
/// Equivalent to `bytes.iter().all(|&b| b == 0)`; each iteration folds a
/// full 64-byte cache line as two independent 32-byte OR lanes — the lanes
/// share no data dependency, so their eight loads pipeline — and the first
/// dirty line short-circuits the scan.
#[must_use]
pub fn is_zero(bytes: &[u8]) -> bool {
    let mut lines = bytes.chunks_exact(64);
    for line in lines.by_ref() {
        if or_lane(&line[0..32]) | or_lane(&line[32..64]) != 0 {
            return false;
        }
    }
    let rest = lines.remainder();
    let mut words = rest.chunks_exact(8);
    for word in words.by_ref() {
        if u64::from_le_bytes(word.try_into().expect("8-byte chunk")) != 0 {
            return false;
        }
    }
    words.remainder().iter().all(|&b| b == 0)
}

/// Fold one little-endian `u64` word into the FNV-1a state, byte by byte —
/// the exact serial recurrence, fed from shifts instead of byte loads.
#[inline(always)]
fn fnv_word(mut h: u64, w: u64) -> u64 {
    h = (h ^ (w & 0xff)).wrapping_mul(FNV_PRIME);
    h = (h ^ ((w >> 8) & 0xff)).wrapping_mul(FNV_PRIME);
    h = (h ^ ((w >> 16) & 0xff)).wrapping_mul(FNV_PRIME);
    h = (h ^ ((w >> 24) & 0xff)).wrapping_mul(FNV_PRIME);
    h = (h ^ ((w >> 32) & 0xff)).wrapping_mul(FNV_PRIME);
    h = (h ^ ((w >> 40) & 0xff)).wrapping_mul(FNV_PRIME);
    h = (h ^ ((w >> 48) & 0xff)).wrapping_mul(FNV_PRIME);
    (h ^ (w >> 56)).wrapping_mul(FNV_PRIME)
}

/// FNV-1a hash of the slice, fed two `u64` words at a time.
///
/// Produces bit-identical results to the byte-wise FNV-1a loop (the byte
/// recurrence is unrolled over each word's lanes in order), so fingerprints
/// computed before and after this kernel landed compare equal. The hash
/// chain is inherently serial; loading 16 bytes per iteration lets the next
/// pair of loads overlap the current multiply chain.
#[must_use]
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut pairs = bytes.chunks_exact(16);
    for pair in pairs.by_ref() {
        let lo = u64::from_le_bytes(pair[0..8].try_into().expect("8-byte chunk"));
        let hi = u64::from_le_bytes(pair[8..16].try_into().expect("8-byte chunk"));
        h = fnv_word(fnv_word(h, lo), hi);
    }
    let rest = pairs.remainder();
    let mut words = rest.chunks_exact(8);
    for word in words.by_ref() {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = fnv_word(h, w);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Mask selecting the even bytes of a word as four `u16` lanes.
const EVEN_BYTES: u64 = 0x00ff_00ff_00ff_00ff;
/// Multiplying four packed `u16` lanes `l0..l3` by this leaves
/// `l0 + l1 + l2 + l3` in the top lane.
const LANE_SUM: u64 = 0x0001_0001_0001_0001;
/// Multiplying four packed `u16` lanes `l0..l3` by this leaves
/// `l0 + 3·l1 + 5·l2 + 7·l3` in the top lane.
const LANE_WEIGHTS: u64 = 0x0001_0003_0005_0007;

/// The positional checksum term `Σ_k bytes[k] · ((base + k) | 1)` of a
/// slice that starts at byte index `base` of its region (wrapping
/// arithmetic). `base` must be even, which every page offset is.
///
/// Exact word-wise kernel. Because `base` is even, byte `k` weighs
/// `base + (k | 1)`, so the term is `base · Σ v + Σ v·(k | 1)`. Within a
/// word, bytes `2i` and `2i + 1` both weigh `2i + 1`, so the even and odd
/// byte lanes add into four `u16` lanes weighted 1, 3, 5, 7, which one
/// multiply folds. Across the eight words of a 64-byte block the
/// word-position weight comes from a running prefix of those lanes instead
/// of a multiply per word. A lane never exceeds `8 · 510`, a prefix lane
/// `28 · 510`, and no folded sum exceeds `u16::MAX`, so no lane carries
/// into its neighbour: the result is bit-identical to the byte-wise fold.
#[must_use]
pub(crate) fn checksum_term(base: u64, bytes: &[u8]) -> u64 {
    debug_assert!(base.is_multiple_of(2), "checksum base {base} is odd");
    let mut sum = 0u64;
    let mut weighted = 0u64;
    let mut offset = 0u64;
    let mut blocks = bytes.chunks_exact(64);
    for block in blocks.by_ref() {
        // `lanes` sums the words' lanes; `prefix` sums `lanes` as it stood
        // before each word, i.e. word `u`'s lanes counted `7 - u` times.
        let mut lanes = 0u64;
        let mut prefix = 0u64;
        for word in block.chunks_exact(8) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            prefix += lanes;
            lanes += (w & EVEN_BYTES) + ((w >> 8) & EVEN_BYTES);
        }
        let block_sum = lanes.wrapping_mul(LANE_SUM) >> 48;
        let in_word = lanes.wrapping_mul(LANE_WEIGHTS) >> 48;
        let word_position = 7 * block_sum - (prefix.wrapping_mul(LANE_SUM) >> 48);
        weighted = weighted
            .wrapping_add(offset.wrapping_mul(block_sum))
            .wrapping_add(8 * word_position + in_word);
        sum += block_sum;
        offset += 64;
    }
    for (k, &v) in blocks.remainder().iter().enumerate() {
        weighted = weighted.wrapping_add((v as u64).wrapping_mul((offset + k as u64) | 1));
        sum += v as u64;
    }
    base.wrapping_mul(sum).wrapping_add(weighted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_types::PAGE_SIZE;

    /// The positional byte-wise fold [`checksum_term`] must match exactly.
    fn checksum_term_bytewise(base: u64, bytes: &[u8]) -> u64 {
        bytes.iter().enumerate().fold(0u64, |acc, (k, &v)| {
            acc.wrapping_add((v as u64).wrapping_mul(base.wrapping_add(k as u64) | 1))
        })
    }

    /// The byte-wise reference both kernels must match exactly.
    fn is_zero_bytewise(bytes: &[u8]) -> bool {
        bytes.iter().all(|&b| b == 0)
    }

    fn fingerprint_bytewise(bytes: &[u8]) -> u64 {
        let mut h = FNV_OFFSET;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    #[test]
    fn zero_scan_handles_edges() {
        assert!(is_zero(&[]));
        assert!(is_zero(&[0u8; 1]));
        assert!(is_zero(&[0u8; 31]));
        assert!(is_zero(&[0u8; 32]));
        assert!(is_zero(&[0u8; PAGE_SIZE as usize]));
        // A single set bit anywhere must be caught, including in the tail.
        for len in [1usize, 7, 8, 31, 32, 33, 63, 64, 100] {
            for at in [0, len / 2, len - 1] {
                let mut buf = vec![0u8; len];
                buf[at] = 1;
                assert!(!is_zero(&buf), "len {len} bit at {at}");
            }
        }
    }

    #[test]
    fn fingerprint_matches_known_byte_recurrence() {
        // FNV-1a("") is the offset basis; one-byte inputs follow directly.
        assert_eq!(fingerprint(&[]), FNV_OFFSET);
        assert_eq!(fingerprint(&[0]), FNV_OFFSET.wrapping_mul(FNV_PRIME));
        let page = vec![0xabu8; PAGE_SIZE as usize];
        assert_eq!(fingerprint(&page), fingerprint_bytewise(&page));
    }

    #[test]
    fn checksum_term_matches_fold_at_lane_limits() {
        // All-0xff saturates every lane and prefix bound the kernel relies on.
        let ones = vec![0xffu8; 4 << 20];
        assert_eq!(checksum_term(0, &ones), checksum_term_bytewise(0, &ones));
        let page = &ones[..PAGE_SIZE as usize];
        for base in [0, PAGE_SIZE, 1023 * PAGE_SIZE, u64::MAX - 1] {
            assert_eq!(
                checksum_term(base, page),
                checksum_term_bytewise(base, page)
            );
        }
        assert_eq!(checksum_term(0, &[]), 0);
        assert_eq!(checksum_term(0, &[2]), 2);
        assert_eq!(checksum_term(2, &[1, 1]), 3 + 3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The word-wise zero scan agrees with the byte-wise reference
            /// for arbitrary contents, lengths (ragged tails included) and
            /// slice offsets (misaligned starts included).
            #[test]
            fn is_zero_equals_bytewise(
                data in proptest::collection::vec(proptest::num::u8::ANY, 0..200),
                zeroed in any::<bool>(),
                offset in 0usize..16,
            ) {
                let mut data = data;
                if zeroed {
                    data.fill(0);
                }
                let start = offset.min(data.len());
                let slice = &data[start..];
                prop_assert_eq!(is_zero(slice), is_zero_bytewise(slice));
            }

            /// The chunked fingerprint is bit-identical to the byte-wise
            /// FNV-1a recurrence on arbitrary slices and offsets.
            #[test]
            fn fingerprint_equals_bytewise(
                data in proptest::collection::vec(proptest::num::u8::ANY, 0..200),
                offset in 0usize..16,
            ) {
                let start = offset.min(data.len());
                let slice = &data[start..];
                prop_assert_eq!(fingerprint(slice), fingerprint_bytewise(slice));
            }

            /// The word-wise checksum term is bit-identical to the byte-wise
            /// positional fold for arbitrary contents, ragged tails, slice
            /// offsets and even bases.
            #[test]
            fn checksum_term_equals_bytewise(
                data in proptest::collection::vec(proptest::num::u8::ANY, 0..600),
                offset in 0usize..16,
                base in 0u64..(1 << 40),
            ) {
                let start = offset.min(data.len());
                let slice = &data[start..];
                let base = base & !1;
                prop_assert_eq!(checksum_term(base, slice), checksum_term_bytewise(base, slice));
            }
        }
    }
}
