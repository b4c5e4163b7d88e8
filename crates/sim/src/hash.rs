//! The identity hasher: SipHash-1-3 with zero keys, owned by this
//! workspace.
//!
//! Belief compaction orders branches by `(weight desc, hash asc)`, so a
//! hypothesis's hash reaches every sweep CSV. std's default hasher is
//! this algorithm today but promises nothing about tomorrow;
//! [`StableHasher`] is the same function of the same byte stream —
//! integers little-endian, `usize` as eight bytes — spelled out, so the
//! pinned fingerprints hold on every toolchain and platform.
//!
//! It is also the fast path for what the workspace hashes: a derived
//! `Hash` feeds a hasher one small integer at a time, and each lands in a
//! 64-bit tail register with a shift, compressing once per filled word,
//! instead of going through a byte-slice copy.

use std::hash::{Hash, Hasher};

/// SipHash-1-3 over the bytes written, keys `(0, 0)`.
#[derive(Debug, Clone)]
pub struct StableHasher {
    v: [u64; 4],
    /// Bytes written so far not yet compressed, lowest byte first.
    tail: u64,
    /// How many bytes `tail` holds, `0..8`.
    ntail: u32,
    /// Total bytes written; only its low byte reaches the hash.
    length: u64,
}

impl StableHasher {
    /// A hasher that has been written nothing.
    pub fn new() -> StableHasher {
        StableHasher {
            // "somepseudorandomlygeneratedbytes" xor the zero keys.
            v: [
                0x736f_6d65_7073_6575,
                0x646f_7261_6e64_6f6d,
                0x6c79_6765_6e65_7261,
                0x7465_6462_7974_6573,
            ],
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    /// The hash of one value's `Hash` stream.
    pub fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = StableHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    /// Append the low `size` bytes of `x` (`1..=8`; the rest must be zero).
    #[inline]
    fn push(&mut self, x: u64, size: u32) {
        self.length += u64::from(size);
        self.tail |= x << (8 * self.ntail);
        let filled = self.ntail + size;
        if filled < 8 {
            self.ntail = filled;
            return;
        }
        compress(&mut self.v, self.tail);
        self.ntail = filled - 8;
        // What of `x` did not fit; a shift by the whole width when it all did.
        self.tail = x.checked_shr(8 * (size - self.ntail)).unwrap_or(0);
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

/// One message word: a single SipRound (the "1" of 1-3).
#[inline]
fn compress(v: &mut [u64; 4], word: u64) {
    v[3] ^= word;
    sip_round(v);
    v[0] ^= word;
}

#[inline]
fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[2] = v[2].rotate_left(32);
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        let mut v = self.v;
        compress(&mut v, (self.length << 56) | self.tail);
        v[2] ^= 0xff;
        for _ in 0..3 {
            sip_round(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }

    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for word in words {
            self.push(u64::from_le_bytes(*word), 8);
        }
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.push(u64::from_le_bytes(word), rest.len() as u32);
        }
    }

    // The signed writes default to these.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.push(u64::from(i), 1);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.push(u64::from(i), 2);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.push(u64::from(i), 4);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.push(i, 8);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.push(i as u64, 8);
    }
}

/// Partition `0..n` into the classes of the equivalence `same`, brought
/// together by `key`, a hash on which equivalent items agree. The items
/// are sorted on `(key, index)` and every run of equal keys is split by
/// `same`, so a collision costs comparisons and never a wrong merge, and
/// no hash container's order can show through. Returns `(leader, member)`
/// pairs in ascending order: each class one contiguous run headed by its
/// leader, its lowest index. Two allocations, whatever `n`.
pub fn classes(
    n: usize,
    key: impl Fn(usize) -> u64,
    same: impl Fn(usize, usize) -> bool,
) -> Vec<(usize, usize)> {
    let mut keyed: Vec<(u64, usize)> = (0..n).map(|i| (key(i), i)).collect();
    // Unstable sorts only: the pairs are distinct, so the order is total.
    keyed.sort_unstable();
    let mut grouped: Vec<(usize, usize)> = Vec::with_capacity(n);
    // `run` is where the entries of the current key value start.
    let (mut run, mut run_key) = (0, None);
    for (k, i) in keyed {
        if run_key != Some(k) {
            (run, run_key) = (grouped.len(), Some(k));
        }
        let leader = grouped[run..]
            .iter()
            .find(|&&(l, m)| l == m && same(l, i))
            .map_or(i, |&(l, _)| l);
        grouped.push((leader, i));
    }
    grouped.sort_unstable();
    grouped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::VecDeque;

    /// Both hashers behind one `Hasher`, each write forwarded to the same
    /// method of either.
    struct Both(StableHasher, DefaultHasher);

    impl Both {
        fn new() -> Both {
            Both(StableHasher::new(), DefaultHasher::new())
        }

        fn assert_agree(&self) {
            assert_eq!(self.0.finish(), self.1.finish());
        }
    }

    macro_rules! forward {
        ($($write:ident: $int:ty),*) => {$(
            fn $write(&mut self, i: $int) {
                self.0.$write(i);
                self.1.$write(i);
            }
        )*};
    }

    impl Hasher for Both {
        fn finish(&self) -> u64 {
            self.0.finish()
        }

        fn write(&mut self, bytes: &[u8]) {
            self.0.write(bytes);
            self.1.write(bytes);
        }

        forward!(
            write_u8: u8, write_u16: u16, write_u32: u32, write_u64: u64,
            write_u128: u128, write_usize: usize, write_i8: i8, write_i16: i16,
            write_i32: i32, write_i64: i64, write_i128: i128, write_isize: isize
        );
    }

    fn bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.uniform_u64(0, 255) as u8).collect()
    }

    /// `StableHasher` is `DefaultHasher::new()`, write for write — the
    /// check that every value pinned while identity went through std
    /// carries over. It holds on 64-bit little-endian targets for as long
    /// as std keeps SipHash-1-3; the day std changes its algorithm this
    /// test is to be deleted, not "fixed": the known answers below are the
    /// pin.
    #[test]
    fn agrees_with_std_default_hasher() {
        // Every slice length at every tail alignment.
        for align in 0..8 {
            for len in 0..=40 {
                let mut rng = SimRng::derive(0x51B, (align * 41 + len) as u64);
                let mut h = Both::new();
                h.write(&bytes(&mut rng, align));
                h.write(&bytes(&mut rng, len));
                h.assert_agree();
                h.write_u16(rng.uniform_u64(0, u64::MAX) as u16);
                h.assert_agree();
            }
        }
        // Generated mixes of everything the workspace's `Hash` impls write.
        for case in 0..512 {
            let mut rng = SimRng::derive(0x51B13, case);
            let mut h = Both::new();
            for _ in 0..rng.uniform_u64(0, 48) {
                let x = rng.uniform_u64(0, u64::MAX);
                let len = rng.uniform_u64(0, 40) as usize;
                match rng.uniform_u64(0, 17) {
                    0 => h.write_u8(x as u8),
                    1 => h.write_u16(x as u16),
                    2 => h.write_u32(x as u32),
                    3 => h.write_u64(x),
                    4 => h.write_usize(x as usize),
                    5 => h.write_u128(u128::from(x) << 61 | u128::from(x)),
                    6 => h.write_i8(x as i8),
                    7 => h.write_i16(x as i16),
                    8 => h.write_i32(x as i32),
                    9 => h.write_i64(x as i64),
                    10 => h.write_isize(x as isize),
                    11 => h.write_i128(-i128::from(x)),
                    12 => h.write(&bytes(&mut rng, len)),
                    13 => "αβγ-fate-string"[..len.min(15) & !1].hash(&mut h),
                    14 => bytes(&mut rng, len).hash(&mut h),
                    15 => VecDeque::from(vec![(x, x as u32, x as u8); len % 5]).hash(&mut h),
                    16 => (x & 1 == 1, Some(x as u16), [x as u32; 3]).hash(&mut h),
                    // A `finish()` mid-stream must not disturb the stream.
                    _ => h.assert_agree(),
                }
            }
            h.assert_agree();
        }
    }

    #[test]
    fn known_answers() {
        let hash = |bytes: &[u8]| {
            let mut h = StableHasher::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xd1fb_a762_150c_532c);
        assert_eq!(hash(b"a"), 0x4074_48d2_b89b_1813);
        assert_eq!(hash(b"12345678"), 0x3489_9824_3056_0a87);
        assert_eq!(hash(b"123456789"), 0x0fbc_0f00_0796_5fcf);
        // The same nine bytes as integers: one stream, one hash.
        let mut h = StableHasher::new();
        h.write_u32(u32::from_le_bytes(*b"1234"));
        h.write_u8(b'5');
        h.write_u16(u16::from_le_bytes(*b"67"));
        h.write_u16(u16::from_le_bytes(*b"89"));
        assert_eq!(h.finish(), hash(b"123456789"));
        assert_eq!(StableHasher::hash_of(&7u64), hash(&7u64.to_le_bytes()));
    }
}
