//! Little-endian serialization helpers for the on-disk structures.
//!
//! The on-disk format is laid out by hand (fixed offsets, little-endian)
//! rather than through serde: a file system's disk format is a contract,
//! and spelling it out keeps the format stable, inspectable with `lfsdump`,
//! and independent of any Rust library's encoding decisions.

/// A cursor for writing fixed-layout structures into a byte buffer.
pub struct Writer<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> Writer<'a> {
    /// Wraps `buf`, starting at offset 0.
    pub fn new(buf: &'a mut [u8]) -> Writer<'a> {
        Writer { buf, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf[self.pos] = v;
        self.pos += 1;
    }

    /// Appends a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf[self.pos..self.pos + 2].copy_from_slice(&v.to_le_bytes());
        self.pos += 2;
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf[self.pos..self.pos + 4].copy_from_slice(&v.to_le_bytes());
        self.pos += 4;
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf[self.pos..self.pos + 8].copy_from_slice(&v.to_le_bytes());
        self.pos += 8;
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf[self.pos..self.pos + v.len()].copy_from_slice(v);
        self.pos += v.len();
    }

    /// Skips `n` bytes, leaving them untouched (zero in fresh buffers).
    pub fn pad(&mut self, n: usize) {
        self.pos += n;
    }
}

/// A cursor for reading fixed-layout structures from a byte buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> u8 {
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    /// Reads a `u16` (little-endian).
    pub fn get_u16(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.buf[self.pos..self.pos + 2].try_into().unwrap());
        self.pos += 2;
        v
    }

    /// Reads a `u32` (little-endian).
    pub fn get_u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        v
    }

    /// Reads a `u64` (little-endian).
    pub fn get_u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        v
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> &'a [u8] {
        let v = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        v
    }

    /// Skips `n` bytes.
    pub fn skip(&mut self, n: usize) {
        self.pos += n;
    }

    /// Bytes left to read. Decoders that parse attacker-controlled input
    /// check this before every read so truncated records surface as
    /// corruption errors instead of slice panics.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
}

/// Multiplier of every mixing step (odd, so multiplying is a bijection).
const MIX_MUL: u64 = 0x9e37_79b1_85eb_ca87;
/// Rotation applied after each multiply, which carries the multiply's
/// strong high bits down to where the next word is xored in.
const MIX_ROT: u32 = 31;
/// Initial values of the four stripe lanes.
const LANE_SEEDS: [u64; 4] = [
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
    0x27d4_eb2f_1656_67c5,
];
/// Rotations that fold lanes 0..4 into one accumulator.
const LANE_FOLD_ROT: [u32; 4] = [1, 7, 12, 18];
/// Multiplier that spreads the input length over the accumulator.
const LEN_MUL: u64 = 0x1656_67b1_9e37_79f9;
/// Multipliers of the finalizer's two multiply–xorshift rounds.
const FINAL_MUL: [u64; 2] = [0xff51_afd7_ed55_8ccd, 0xc4ce_b9fe_1a85_ec53];

/// One mixing step: absorbs the little-endian word `w` into `acc`. For a
/// fixed `w` it is a bijection of `acc`, and for a fixed `acc` a bijection
/// of `w`, so two inputs that differ in exactly one absorbed word can
/// never reach the same accumulator.
#[inline(always)]
fn mix(acc: u64, w: u64) -> u64 {
    (acc ^ w).wrapping_mul(MIX_MUL).rotate_left(MIX_ROT)
}

/// Little-endian word from up to eight bytes, zero-extended.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// Checksum v2 — the one checksum of every on-disk structure (log blocks,
/// summaries, checkpoints, the superblock); defined exactly in DESIGN.md.
///
/// The input is read as 8-byte little-endian words. Each 32-byte stripe
/// feeds four independent lanes (word `i` of the stripe into lane `i`),
/// so the four multiply chains overlap and the loop runs at memory
/// speed instead of one dependent multiply per byte. The lanes are then
/// folded, the `len % 32` tail absorbed word by word (the last, partial
/// word zero-extended), and a finalizer mixes in the length.
///
/// A cryptographic hash is unnecessary: the checksum only needs to detect
/// torn writes, media rot and stale garbage, the same role the checkpoint
/// timestamp plays in the paper. Every step is a bijection (see [`mix`]),
/// so a change confined to one aligned 8-byte word — any single-bit flip,
/// any burst inside a word — always changes the sum.
pub fn checksum(data: &[u8]) -> u64 {
    checksum_pieces([data])
}

/// [`checksum`] of the concatenation of `pieces`, read in place: every
/// piece but the last must be a whole number of 32-byte stripes. A
/// fragment block is summed this way from the cached blocks its fragments
/// come from.
pub(crate) fn checksum_pieces<'a>(pieces: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut lanes = LANE_SEEDS;
    let (mut len, mut tail): (usize, &[u8]) = (0, &[]);
    for piece in pieces {
        assert!(tail.is_empty(), "a piece before the last ends mid-stripe");
        let mut stripes = piece.chunks_exact(32);
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = mix(*lane, le_word(word));
            }
        }
        (len, tail) = (len + piece.len(), stripes.remainder());
    }
    let mut h = 0u64;
    for (lane, rot) in lanes.iter().zip(LANE_FOLD_ROT) {
        h = h.wrapping_add(lane.rotate_left(rot));
    }
    for word in tail.chunks(8) {
        h = mix(h, le_word(word));
    }
    h ^= (len as u64).wrapping_mul(LEN_MUL);
    for m in FINAL_MUL {
        h = (h ^ (h >> 33)).wrapping_mul(m);
    }
    h ^ (h >> 33)
}

/// The 32-bit fold of a 64-bit [`checksum`].
pub(crate) fn fold(h: u64) -> u32 {
    (h ^ (h >> 32)) as u32
}

/// 32-bit fold of [`checksum`], used where space is tight (per-block
/// checksums in segment-summary entries).
pub fn block_checksum(data: &[u8]) -> u32 {
    fold(checksum(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = [0u8; 32];
        let mut w = Writer::new(&mut buf);
        w.put_u8(0xab);
        w.put_u16(0x1234);
        w.put_u32(0xdeadbeef);
        w.put_u64(0x0123456789abcdef);
        w.put_bytes(b"xyz");
        assert_eq!(w.pos(), 18);

        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8(), 0xab);
        assert_eq!(r.get_u16(), 0x1234);
        assert_eq!(r.get_u32(), 0xdeadbeef);
        assert_eq!(r.get_u64(), 0x0123456789abcdef);
        assert_eq!(r.get_bytes(3), b"xyz");
    }

    #[test]
    fn pad_and_skip_stay_in_sync() {
        let mut buf = [0u8; 16];
        let mut w = Writer::new(&mut buf);
        w.put_u32(7);
        w.pad(4);
        w.put_u32(9);
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u32(), 7);
        r.skip(4);
        assert_eq!(r.get_u32(), 9);
    }

    /// Summed in pieces of whole stripes, the sum is the whole input's.
    #[test]
    fn pieces_sum_like_their_concatenation() {
        let ramp: Vec<u8> = (0..4096u32).map(|i| (i * 7 + 3) as u8).collect();
        for cuts in [&[][..], &[64], &[1024, 3072], &[32, 64, 3968]] {
            let mut pieces = Vec::new();
            let mut from = 0;
            for &to in cuts {
                pieces.push(&ramp[from..to]);
                from = to;
            }
            pieces.push(&ramp[from..4000]);
            assert_eq!(checksum_pieces(pieces), checksum(&ramp[..4000]), "{cuts:?}");
        }
    }

    #[test]
    fn checksum_detects_single_bit_flip() {
        let a = checksum(b"the quick brown fox");
        let b = checksum(b"the quick brown foy");
        assert_ne!(a, b);
        assert_eq!(a, checksum(b"the quick brown fox"));
    }

    /// The stored values of format v2. A failure here means the function
    /// changed and every existing image is orphaned: bump the superblock
    /// `VERSION` rather than editing the table.
    #[test]
    fn known_answer_vectors() {
        let ramp: Vec<u8> = (0..4096u32).map(|i| (i * 7 + 3) as u8).collect();
        for (len, sum, block_sum) in [
            (0usize, 0x1ffa_b7bb_38ef_0358u64, 0x2715_b4e3u32),
            (1, 0x9a99_2d51_9f68_c934, 0x05f1_e465),
            (31, 0xb50b_0f3e_5eab_8f58, 0xeba0_8066),
            (32, 0x00fb_197f_87f9_f89f, 0x8702_e1e0),
            (33, 0x95b7_512d_e63a_5b07, 0x738d_0a2a),
            (4096, 0xcfd9_2bcc_6e92_6ae4, 0xa14b_4128),
        ] {
            assert_eq!(checksum(&ramp[..len]), sum, "checksum, len {len}");
            assert_eq!(block_checksum(&ramp[..len]), block_sum, "fold, len {len}");
        }
    }

    fn random_block(seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..4096).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn every_single_bit_flip_of_a_block_changes_both_sums() {
        let mut block = random_block(20);
        let (sum, fold) = (checksum(&block), block_checksum(&block));
        for bit in 0..block.len() * 8 {
            block[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&block), sum, "bit {bit}");
            assert_ne!(block_checksum(&block), fold, "bit {bit} (fold)");
            block[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(checksum(&block), sum);
    }

    #[test]
    fn replaced_or_swapped_sectors_change_the_sum() {
        let block = random_block(21);
        let other = random_block(22);
        let sum = checksum(&block);
        let sectors = block.len() / 512;
        for i in 0..sectors {
            let at = i * 512..(i + 1) * 512;
            // A torn write: sector `i` holds other (stale or zero) bytes.
            for stale in [&other[at.clone()], &[0u8; 512][..]] {
                let mut torn = block.clone();
                torn[at.clone()].copy_from_slice(stale);
                assert_ne!(checksum(&torn), sum, "sector {i} replaced");
            }
            // A misdirected write: sectors `i` and `j` trade places.
            for j in i + 1..sectors {
                let mut swapped = block.clone();
                let (lo, hi) = swapped.split_at_mut(j * 512);
                lo[at.clone()].swap_with_slice(&mut hi[..512]);
                assert_ne!(checksum(&swapped), sum, "sectors {i},{j} swapped");
            }
        }
    }

    #[test]
    fn length_is_part_of_the_sum() {
        // Zero extension and all-zero inputs: every length 0..=96 (three
        // stripes plus every tail shape) sums differently.
        let data = random_block(23);
        let zeros = [0u8; 97];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=96 {
            assert!(seen.insert(checksum(&zeros[..len])), "zeros, len {len}");
            let mut extended = data[..len].to_vec();
            for pad in 1..=40 {
                extended.push(0);
                assert_ne!(
                    checksum(&extended),
                    checksum(&data[..len]),
                    "len {len} + {pad} zero bytes"
                );
            }
        }
    }

    #[test]
    fn every_byte_of_stripe_and_tail_is_covered() {
        let data = random_block(24);
        for len in 0..=96 {
            let sum = checksum(&data[..len]);
            for i in 0..len {
                let mut bad = data[..len].to_vec();
                bad[i] ^= 0x40;
                assert_ne!(checksum(&bad), sum, "len {len}, byte {i}");
            }
        }
    }
}
