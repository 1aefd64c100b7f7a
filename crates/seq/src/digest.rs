//! Stable content digests: [`StableHasher`], and the digests of the two
//! bulk arrays a pipeline stage hands on — a [`FragmentStore`] and its
//! quality tracks. The artifact cache keys and checksums with these, and
//! the preprocess artifact stores the digests of its own stores, so a
//! warm run derives the later stages' keys without re-hashing the bases.

use crate::fragment::FragmentStore;
use crate::quality::QualityTrack;

/// A stable, dependency-free 64-bit hash whose value is identical
/// across runs, platforms, and compiler versions (unlike
/// `std::collections::hash_map::DefaultHasher`, which is randomly
/// seeded per process and would make every run a miss).
///
/// It folds the input a little-endian 8-byte word at a time into a
/// 128-bit state, one Feistel round per word:
/// `(a, b) ← (b ^ fold(a ^ word), a ^ word)`, `fold` being a
/// 64×64→128-bit multiply by an odd constant with its halves XORed.
/// Each round is a bijection of the state, so no word can erase earlier
/// input, and a one-bit change leaves it as a dense difference (DESIGN.md
/// §7 says why one `(state.rotl(r) ^ word) * K` per word is not enough).
/// A partial last word is buffered, so how the bytes are split across
/// [`StableHasher::update`] calls never changes the digest; `finish`
/// runs one round on the zero-padded tail and one on the byte length.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    a: u64,
    b: u64,
    /// Bytes folded in so far, the buffered tail included.
    len: u64,
    /// The partial word awaiting its remaining bytes; zero past
    /// `tail_len`.
    tail: [u8; 8],
    tail_len: usize,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    /// Fresh hasher.
    pub fn new() -> Self {
        StableHasher { a: 0x243f_6a88_85a3_08d3, b: 0x1319_8a2e_0370_7344, len: 0, tail: [0; 8], tail_len: 0 }
    }

    /// One Feistel round keyed by `word`.
    #[inline]
    fn round(&mut self, word: u64) {
        let a = self.a ^ word;
        let wide = a as u128 * Self::K as u128;
        (self.a, self.b) = (self.b ^ wide as u64 ^ (wide >> 64) as u64, a);
    }

    /// Fold raw bytes into the state.
    pub fn update(&mut self, mut bytes: &[u8]) -> &mut Self {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = bytes.len().min(8 - self.tail_len);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return self;
            }
            self.round(u64::from_le_bytes(self.tail));
            (self.tail, self.tail_len) = ([0; 8], 0);
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.round(u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8-byte words")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
        self
    }

    /// Fold a `u64` (little-endian) into the state.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_le_bytes())
    }

    /// Fold a length-prefixed byte slice into the state. The prefix
    /// keeps adjacent variable-length fields unambiguous — without it,
    /// `("ab", "c")` and `("a", "bc")` would collide by construction.
    pub fn update_slice(&mut self, bytes: &[u8]) -> &mut Self {
        self.update_u64(bytes.len() as u64).update(bytes)
    }

    /// Fold a length-prefixed string into the state.
    pub fn update_str(&mut self, s: &str) -> &mut Self {
        self.update_slice(s.as_bytes())
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> u64 {
        let mut h = *self;
        h.round(u64::from_le_bytes(h.tail));
        h.round(h.len);
        h.a
    }
}

/// Content digest of a store: its strandedness, its sequence count and
/// every sequence, length-prefixed. Equal exactly when the stores are
/// (up to a 64-bit collision).
pub fn store_digest(store: &FragmentStore) -> u64 {
    let mut h = StableHasher::new();
    h.update_u64(store.is_double_stranded() as u64);
    h.update_u64(store.num_seqs() as u64);
    for (_, codes) in store.iter() {
        h.update_slice(codes);
    }
    h.finish()
}

/// Content digest of quality tracks: their count and every track,
/// length-prefixed.
pub fn quals_digest(quals: &[QualityTrack]) -> u64 {
    let mut h = StableHasher::new();
    h.update_u64(quals.len() as u64);
    for q in quals {
        h.update_slice(q.values());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::DnaSeq;
    use proptest::prelude::*;

    fn digest(bytes: &[u8]) -> u64 {
        StableHasher::new().update(bytes).finish()
    }

    #[test]
    fn stable_hasher_is_deterministic_and_prefix_safe() {
        let mut a = StableHasher::new();
        a.update_str("ab").update_str("c");
        let mut b = StableHasher::new();
        b.update_str("a").update_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefixes must disambiguate");
        // Known answer: the digest of the empty input.
        assert_eq!(StableHasher::new().finish(), 0xa9da_a8eb_9869_23f4);
    }

    #[test]
    fn stable_hasher_known_answers() {
        let word: Vec<u8> = (1..=8).collect();
        assert_eq!(digest(b""), 0xa9da_a8eb_9869_23f4);
        assert_eq!(digest(&word), 0x0a34_100a_5dcc_e3e7);
        // A lone tail of 1–7 bytes: no whole word at all.
        let tails = [
            0x867a_2727_f134_8760,
            0x6680_3c43_2d2f_be6b,
            0xacd1_3f9c_c33d_f19d,
            0xad61_8b0a_a9a0_a81b,
            0x4933_eb67_baf8_045a,
            0xe850_de46_9b58_bb17,
            0xab3f_f334_37bf_6827,
        ];
        for (k, &want) in tails.iter().enumerate() {
            assert_eq!(digest(&word[..k + 1]), want, "tail of {} bytes", k + 1);
        }
        let mb: Vec<u8> = (0..1u32 << 20).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        assert_eq!(digest(&mb), 0x091f_e6c7_2524_9474);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tail buffer makes `update` calls a stream: however the
        /// same bytes are cut up, the digest is the one-shot digest.
        #[test]
        fn any_split_of_the_input_gives_the_same_digest(
            bytes in prop::collection::vec(any::<u8>(), 0..80),
            cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = StableHasher::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                h.update(&bytes[from..cut]);
                from = cut;
            }
            prop_assert_eq!(h.finish(), digest(&bytes));
        }
    }

    /// No two of these inputs share a digest: every ten-mer over the
    /// four code bytes, and every one-bit flip of a 4 KB buffer.
    #[test]
    fn ten_mers_and_one_bit_flips_do_not_collide() {
        fn distinct(mut digests: Vec<u64>) {
            let n = digests.len();
            digests.sort_unstable();
            digests.dedup();
            assert_eq!(digests.len(), n, "{} collisions", n - digests.len());
        }
        distinct(
            (0..1u32 << 20)
                .map(|m| digest(&std::array::from_fn::<u8, 10, _>(|i| (m >> (2 * i) & 3) as u8)))
                .collect(),
        );
        let buffer: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(40_503) >> 7) as u8).collect();
        let mut digests = vec![digest(&buffer)];
        let mut flipped = buffer.clone();
        for bit in 0..buffer.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            digests.push(digest(&flipped));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        distinct(digests);
    }

    #[test]
    fn content_digests_see_every_base_and_every_boundary() {
        let store = FragmentStore::from_seqs([DnaSeq::from("ACGT"), DnaSeq::from("GG")]);
        let moved = FragmentStore::from_seqs([DnaSeq::from("ACG"), DnaSeq::from("TGG")]);
        assert_ne!(store_digest(&store), store_digest(&moved), "a fragment boundary moved");
        let mut masked = DnaSeq::from("ACGT");
        masked.mask_range(1, 2);
        let one_masked = FragmentStore::from_seqs([masked, DnaSeq::from("GG")]);
        assert_ne!(store_digest(&store), store_digest(&one_masked), "one base masked");
        assert_ne!(store_digest(&store), store_digest(&store.with_reverse_complements()));
        let quals = [QualityTrack::uniform(4, 30), QualityTrack::uniform(2, 30)];
        let mut other = quals.clone();
        other[1] = QualityTrack::from_values(vec![30, 31]);
        assert_ne!(quals_digest(&quals), quals_digest(&other), "one quality value");
        assert_ne!(quals_digest(&quals), quals_digest(&quals[..1]));
    }
}
