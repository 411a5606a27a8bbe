//! AES-128 (FIPS 197) with CTR mode and an encrypt-then-MAC sealed box.
//!
//! The Virtual Ghost VM uses [`SealedBox`] when the OS asks to swap out a
//! ghost page: the page is encrypted under the VM's AES key and authenticated
//! (together with its virtual page number, to prevent the OS substituting one
//! swapped page for another) under the VM's MAC key. Applications use
//! [`Aes128`]/[`Aes128Ctr`]/[`ctr_xor`] directly for their own file
//! encryption, mirroring the paper's point that applications choose their own
//! algorithms.
//!
//! ## Data-plane layout
//!
//! [`Aes128::new`] expands the key once into two schedules: the encryption
//! round keys and the InvMixColumns-transformed keys of the equivalent
//! inverse cipher. Two round functions run over those same schedules, and
//! `new` picks one per key, by a run-time CPU check:
//!
//! * **AES-NI** (x86-64 hosts whose CPU has it): `aesenc`/`aesenclast` and
//!   `aesdec`/`aesdeclast`, with the schedules converted once into round-key
//!   registers. The hardware rounds make no secret-indexed table loads.
//! * **T-tables** (every other host): the word-sliced formulation, four
//!   const 256-entry `u32` tables that fold SubBytes, ShiftRows, and
//!   MixColumns into one lookup + xor per state byte. The tables are built
//!   by `const fn` at compile time from the S-box, so there is nothing to
//!   initialize at run time.
//!
//! CTR mode generates its keystream eight counter blocks (128 bytes) per
//! batch through one loop shared by [`Aes128::ctr_xor`] and
//! [`Aes128Ctr::xor`]. Both round functions are bit-identical to the
//! textbook scalar implementation retained in [`crate::reference`], and to
//! each other (differential proptests here and in `tests/differential.rs`).

use crate::hmac::{HmacKey, HmacSha256};

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Multiplication in GF(2^8) with the AES polynomial (compile-time capable).
const fn gmul(a: u8, b: u8) -> u8 {
    let mut a = a;
    let mut b = b;
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

const fn build_inv_sbox() -> [u8; 256] {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// Inverse S-box, derived from [`SBOX`] at compile time.
const INV_SBOX: [u8; 256] = build_inv_sbox();

/// `TE0[x]` is the MixColumns image of `SubBytes(x)` placed in byte 0 of a
/// column: the (2,1,1,3) column of the MixColumns matrix scaled by `S[x]`.
/// `TE1..TE3` are byte rotations for the other three positions, which also
/// absorbs ShiftRows into the table index selection.
const fn build_te0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        t[i] = u32::from_be_bytes([gmul(s, 2), s, s, gmul(s, 3)]);
        i += 1;
    }
    t
}

/// `TD0[x]` is the InvMixColumns image of `InvSubBytes(x)` in byte 0: the
/// (14,9,13,11) column scaled by `S⁻¹[x]`.
const fn build_td0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = INV_SBOX[i];
        t[i] = u32::from_be_bytes([gmul(s, 14), gmul(s, 9), gmul(s, 13), gmul(s, 11)]);
        i += 1;
    }
    t
}

const fn rotr_table(src: &[u32; 256], r: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = src[i].rotate_right(r);
        i += 1;
    }
    t
}

const TE0: [u32; 256] = build_te0();
const TE1: [u32; 256] = rotr_table(&TE0, 8);
const TE2: [u32; 256] = rotr_table(&TE0, 16);
const TE3: [u32; 256] = rotr_table(&TE0, 24);
const TD0: [u32; 256] = build_td0();
const TD1: [u32; 256] = rotr_table(&TD0, 8);
const TD2: [u32; 256] = rotr_table(&TD0, 16);
const TD3: [u32; 256] = rotr_table(&TD0, 24);

/// InvMixColumns of one round-key word, via the decryption tables:
/// `TD_i[S[b]]` is exactly the InvMixColumns column for input byte `b`.
fn inv_mix_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    TD0[SBOX[a as usize] as usize]
        ^ TD1[SBOX[b as usize] as usize]
        ^ TD2[SBOX[c as usize] as usize]
        ^ TD3[SBOX[d as usize] as usize]
}

/// Keystream blocks generated per CTR batch: eight counter blocks (128
/// bytes) in flight, enough to hide the AES-NI round latency.
const BATCH: usize = 8;

/// Bytes of keystream per CTR batch.
const BATCH_BYTES: usize = 16 * BATCH;

/// An expanded AES-128 key schedule: encryption round keys plus the
/// InvMixColumns-transformed decryption schedule for the equivalent inverse
/// cipher, both computed once at construction.
///
/// On x86-64 hosts with AES-NI the rounds run on the hardware instructions,
/// over the same two schedules; elsewhere they run on the T-tables. The
/// choice is made once in [`Aes128::new`] and never changes the output.
///
/// `Debug` prints only the backend, never key material.
///
/// # Examples
///
/// ```
/// use vg_crypto::aes::Aes128;
///
/// let aes = Aes128::new(&[0u8; 16]);
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_eq!(aes.decrypt_block(ct), [0u8; 16]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// Encryption round keys, as big-endian column words: `ek[4r + c]` is
    /// column `c` of round `r`.
    ek: [u32; 44],
    /// Decryption round keys for the equivalent inverse cipher: reversed
    /// rounds, InvMixColumns applied to rounds 1..=9.
    dk: [u32; 44],
    /// `ek` and `dk` as AES-NI registers; `None` when the CPU lacks AES-NI,
    /// which selects the T-table rounds.
    #[cfg(target_arch = "x86_64")]
    ni: Option<ni::RoundKeys>,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes128")
            .field("backend", &self.backend())
            .finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expands a 16-byte key into both round-key schedules.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut ek = [0u32; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            ek[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let mut rcon: u32 = 0x0100_0000;
        for i in 4..44 {
            let mut t = ek[i - 1];
            if i % 4 == 0 {
                t = sub_word(t.rotate_left(8)) ^ rcon;
                rcon = u32::from_be_bytes([xtime(rcon.to_be_bytes()[0]), 0, 0, 0]);
            }
            ek[i] = ek[i - 4] ^ t;
        }
        let mut dk = [0u32; 44];
        dk[..4].copy_from_slice(&ek[40..44]);
        dk[40..44].copy_from_slice(&ek[..4]);
        for r in 1..10 {
            for c in 0..4 {
                dk[4 * r + c] = inv_mix_word(ek[4 * (10 - r) + c]);
            }
        }
        Aes128 {
            ek,
            dk,
            #[cfg(target_arch = "x86_64")]
            ni: ni::RoundKeys::new(&ek, &dk),
        }
    }

    /// Which round function this schedule runs on.
    fn backend(&self) -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if self.ni.is_some() {
            return "aes-ni";
        }
        "t-table"
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = &self.ni {
            return ni.encrypt_block(block);
        }
        self.table_encrypt(block)
    }

    /// Decrypts one 16-byte block (equivalent inverse cipher over the
    /// precomputed `dk` schedule — no per-call table building).
    pub fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = &self.ni {
            return ni.decrypt_block(block);
        }
        self.table_decrypt(block)
    }

    /// XORs `data` in place with the CTR keystream for `nonce`, counter
    /// starting at 0 — one pass over an already-expanded schedule.
    ///
    /// Equivalent to the free function [`ctr_xor`] minus the per-call key
    /// expansion; loop-heavy callers (page sealing, SSH chunk transfer)
    /// should hoist the [`Aes128`] and call this.
    pub fn ctr_xor(&self, nonce: u64, data: &mut [u8]) {
        self.xor_keystream(nonce, 0, data);
    }

    /// XORs `data` with the keystream whose first block is
    /// `E(nonce ‖ counter)`, one batch at a time, and returns the counter of
    /// the block after the last one touched (a partial final block counts).
    /// The one CTR loop behind [`Aes128::ctr_xor`] and [`Aes128Ctr::xor`].
    fn xor_keystream(&self, nonce: u64, mut counter: u64, data: &mut [u8]) -> u64 {
        for chunk in data.chunks_mut(BATCH_BYTES) {
            let blocks = chunk.len().div_ceil(16);
            let ks = self.keystream(nonce, counter, blocks);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(blocks as u64);
        }
        counter
    }

    /// One keystream batch: block `i < blocks` is `E(nonce ‖ counter + i)`,
    /// with the counter wrapping at 2^64. `blocks` is 1..=[`BATCH`]; bytes
    /// past the requested blocks are unspecified.
    #[inline]
    fn keystream(&self, nonce: u64, counter: u64, blocks: usize) -> [u8; BATCH_BYTES] {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = &self.ni {
            return ni.keystream(nonce, counter);
        }
        let mut ks = [0u8; BATCH_BYTES];
        for (i, out) in ks.chunks_exact_mut(16).take(blocks).enumerate() {
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&nonce.to_be_bytes());
            block[8..].copy_from_slice(&counter.wrapping_add(i as u64).to_be_bytes());
            out.copy_from_slice(&self.table_encrypt(block));
        }
        ks
    }

    /// T-table encryption: the round function on hosts without AES-NI.
    fn table_encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        let k = &self.ek;
        let mut s0 = load_be(&block, 0) ^ k[0];
        let mut s1 = load_be(&block, 4) ^ k[1];
        let mut s2 = load_be(&block, 8) ^ k[2];
        let mut s3 = load_be(&block, 12) ^ k[3];
        for r in 1..10 {
            let t0 = te(s0, s1, s2, s3) ^ k[4 * r];
            let t1 = te(s1, s2, s3, s0) ^ k[4 * r + 1];
            let t2 = te(s2, s3, s0, s1) ^ k[4 * r + 2];
            let t3 = te(s3, s0, s1, s2) ^ k[4 * r + 3];
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
        }
        let mut out = [0u8; 16];
        store_be(&mut out, 0, final_enc(s0, s1, s2, s3) ^ k[40]);
        store_be(&mut out, 4, final_enc(s1, s2, s3, s0) ^ k[41]);
        store_be(&mut out, 8, final_enc(s2, s3, s0, s1) ^ k[42]);
        store_be(&mut out, 12, final_enc(s3, s0, s1, s2) ^ k[43]);
        out
    }

    /// T-table decryption (equivalent inverse cipher over `dk`).
    fn table_decrypt(&self, block: [u8; 16]) -> [u8; 16] {
        let k = &self.dk;
        let mut s0 = load_be(&block, 0) ^ k[0];
        let mut s1 = load_be(&block, 4) ^ k[1];
        let mut s2 = load_be(&block, 8) ^ k[2];
        let mut s3 = load_be(&block, 12) ^ k[3];
        for r in 1..10 {
            let t0 = td(s0, s3, s2, s1) ^ k[4 * r];
            let t1 = td(s1, s0, s3, s2) ^ k[4 * r + 1];
            let t2 = td(s2, s1, s0, s3) ^ k[4 * r + 2];
            let t3 = td(s3, s2, s1, s0) ^ k[4 * r + 3];
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
        }
        let mut out = [0u8; 16];
        store_be(&mut out, 0, final_dec(s0, s3, s2, s1) ^ k[40]);
        store_be(&mut out, 4, final_dec(s1, s0, s3, s2) ^ k[41]);
        store_be(&mut out, 8, final_dec(s2, s1, s0, s3) ^ k[42]);
        store_be(&mut out, 12, final_dec(s3, s2, s1, s0) ^ k[43]);
        out
    }
}

/// The AES-NI round function. It adds no key schedule of its own: its
/// round keys are the byte images of [`Aes128`]'s `ek` words, and its
/// decryption keys are the `dk` words, which already hold the
/// equivalent-inverse-cipher schedule `aesdec` expects. This module holds
/// all of the crate's `unsafe`: calling a `#[target_feature(enable =
/// "aes")]` function is sound only on a CPU with AES-NI, and a
/// [`RoundKeys`] exists only after `is_x86_feature_detected!("aes")` said
/// so.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::{BATCH, BATCH_BYTES};
    use std::arch::x86_64::{
        __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
        _mm_cvtsi128_si64, _mm_set_epi64x, _mm_setzero_si128, _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// Both schedules loaded as round-key registers.
    #[derive(Clone, Copy)]
    pub(super) struct RoundKeys {
        enc: [__m128i; 11],
        dec: [__m128i; 11],
    }

    impl RoundKeys {
        /// Converts the two schedules, or returns `None` when the CPU
        /// lacks AES-NI.
        pub(super) fn new(ek: &[u32; 44], dk: &[u32; 44]) -> Option<Self> {
            if !std::arch::is_x86_feature_detected!("aes") {
                return None;
            }
            // SAFETY: `is_x86_feature_detected!("aes")` returned true just above.
            Some(unsafe { load_schedules(ek, dk) })
        }

        pub(super) fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
            // SAFETY: `self` was built by `RoundKeys::new`, which returns a
            // value only after `is_x86_feature_detected!("aes")` was true.
            unsafe { encrypt(&self.enc, block) }
        }

        pub(super) fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
            // SAFETY: `self` was built by `RoundKeys::new`, which returns a
            // value only after `is_x86_feature_detected!("aes")` was true.
            unsafe { decrypt(&self.dec, block) }
        }

        /// All [`BATCH`] blocks of one keystream batch, always computed
        /// together: the blocks are independent, so they pipeline.
        pub(super) fn keystream(&self, nonce: u64, counter: u64) -> [u8; BATCH_BYTES] {
            // SAFETY: `self` was built by `RoundKeys::new`, which returns a
            // value only after `is_x86_feature_detected!("aes")` was true.
            unsafe { keystream(&self.enc, nonce, counter) }
        }
    }

    /// The 16 state bytes as a register (byte `i` in lane byte `i`).
    #[target_feature(enable = "aes")]
    fn load(b: [u8; 16]) -> __m128i {
        let (lo, hi) = b.split_at(8);
        _mm_set_epi64x(
            i64::from_le_bytes(hi.try_into().expect("8 bytes")),
            i64::from_le_bytes(lo.try_into().expect("8 bytes")),
        )
    }

    #[target_feature(enable = "aes")]
    fn store(x: __m128i) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&_mm_cvtsi128_si64(x).to_le_bytes());
        out[8..].copy_from_slice(&_mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)).to_le_bytes());
        out
    }

    #[target_feature(enable = "aes")]
    fn load_schedules(ek: &[u32; 44], dk: &[u32; 44]) -> RoundKeys {
        RoundKeys {
            enc: load_schedule(ek),
            dec: load_schedule(dk),
        }
    }

    /// Round `r` of a schedule is the byte image of its big-endian words
    /// `w[4r..4r + 4]`.
    #[target_feature(enable = "aes")]
    fn load_schedule(w: &[u32; 44]) -> [__m128i; 11] {
        let mut keys = [_mm_setzero_si128(); 11];
        for (key, words) in keys.iter_mut().zip(w.chunks_exact(4)) {
            let mut bytes = [0u8; 16];
            for (dst, word) in bytes.chunks_exact_mut(4).zip(words) {
                dst.copy_from_slice(&word.to_be_bytes());
            }
            *key = load(bytes);
        }
        keys
    }

    #[target_feature(enable = "aes")]
    fn encrypt(k: &[__m128i; 11], block: [u8; 16]) -> [u8; 16] {
        let mut s = _mm_xor_si128(load(block), k[0]);
        for rk in &k[1..10] {
            s = _mm_aesenc_si128(s, *rk);
        }
        store(_mm_aesenclast_si128(s, k[10]))
    }

    #[target_feature(enable = "aes")]
    fn decrypt(k: &[__m128i; 11], block: [u8; 16]) -> [u8; 16] {
        let mut s = _mm_xor_si128(load(block), k[0]);
        for rk in &k[1..10] {
            s = _mm_aesdec_si128(s, *rk);
        }
        store(_mm_aesdeclast_si128(s, k[10]))
    }

    /// `E(nonce ‖ counter + i)` for `i` in `0..BATCH`, every round applied
    /// to all blocks before the next round starts.
    #[target_feature(enable = "aes")]
    fn keystream(k: &[__m128i; 11], nonce: u64, counter: u64) -> [u8; BATCH_BYTES] {
        // The counter block is `nonce` (low lane) then `counter` (high
        // lane), both big-endian, so each lane holds the byte-swapped value.
        let nonce = nonce.swap_bytes() as i64;
        let mut s = [_mm_setzero_si128(); BATCH];
        for (i, b) in s.iter_mut().enumerate() {
            let ctr = counter.wrapping_add(i as u64).swap_bytes() as i64;
            *b = _mm_xor_si128(_mm_set_epi64x(ctr, nonce), k[0]);
        }
        for rk in &k[1..10] {
            for b in &mut s {
                *b = _mm_aesenc_si128(*b, *rk);
            }
        }
        let mut ks = [0u8; BATCH_BYTES];
        for (out, b) in ks.chunks_exact_mut(16).zip(s) {
            out.copy_from_slice(&store(_mm_aesenclast_si128(b, k[10])));
        }
        ks
    }
}

#[inline(always)]
fn load_be(b: &[u8; 16], i: usize) -> u32 {
    u32::from_be_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]])
}

#[inline(always)]
fn store_be(b: &mut [u8; 16], i: usize, w: u32) {
    b[i..i + 4].copy_from_slice(&w.to_be_bytes());
}

#[inline(always)]
fn sub_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[a as usize],
        SBOX[b as usize],
        SBOX[c as usize],
        SBOX[d as usize],
    ])
}

/// One encryption-round column: ShiftRows selects which state word feeds
/// each byte position, the tables do SubBytes + MixColumns.
#[inline(always)]
fn te(a: u32, b: u32, c: u32, d: u32) -> u32 {
    TE0[(a >> 24) as usize]
        ^ TE1[((b >> 16) & 0xff) as usize]
        ^ TE2[((c >> 8) & 0xff) as usize]
        ^ TE3[(d & 0xff) as usize]
}

/// One decryption-round column (InvShiftRows rotates the other way, hence
/// the reversed word order at the call sites).
#[inline(always)]
fn td(a: u32, b: u32, c: u32, d: u32) -> u32 {
    TD0[(a >> 24) as usize]
        ^ TD1[((b >> 16) & 0xff) as usize]
        ^ TD2[((c >> 8) & 0xff) as usize]
        ^ TD3[(d & 0xff) as usize]
}

/// Final encryption round: SubBytes + ShiftRows only (no MixColumns).
#[inline(always)]
fn final_enc(a: u32, b: u32, c: u32, d: u32) -> u32 {
    u32::from_be_bytes([
        SBOX[(a >> 24) as usize],
        SBOX[((b >> 16) & 0xff) as usize],
        SBOX[((c >> 8) & 0xff) as usize],
        SBOX[(d & 0xff) as usize],
    ])
}

/// Final decryption round: InvSubBytes + InvShiftRows only.
#[inline(always)]
fn final_dec(a: u32, b: u32, c: u32, d: u32) -> u32 {
    u32::from_be_bytes([
        INV_SBOX[(a >> 24) as usize],
        INV_SBOX[((b >> 16) & 0xff) as usize],
        INV_SBOX[((c >> 8) & 0xff) as usize],
        INV_SBOX[(d & 0xff) as usize],
    ])
}

/// A streaming AES-CTR keystream: expands the key schedule once and keeps
/// the (counter, intra-block offset) position across calls, so xoring a
/// message in arbitrary chunks produces exactly the same bytes as one
/// [`ctr_xor`] pass over the concatenation.
///
/// # Examples
///
/// ```
/// use vg_crypto::aes::{ctr_xor, Aes128, Aes128Ctr};
///
/// let aes = Aes128::new(&[7u8; 16]);
/// let mut streamed = *b"split across three calls";
/// let mut ctr = Aes128Ctr::new(&aes, 99);
/// ctr.xor(&mut streamed[..5]);
/// ctr.xor(&mut streamed[5..6]);
/// ctr.xor(&mut streamed[6..]);
///
/// let mut oneshot = *b"split across three calls";
/// ctr_xor(&[7u8; 16], 99, &mut oneshot);
/// assert_eq!(streamed, oneshot);
/// ```
#[derive(Clone)]
pub struct Aes128Ctr {
    aes: Aes128,
    nonce: u64,
    counter: u64,
    ks: [u8; 16],
    ks_off: usize,
}

/// Prints the stream position, never the buffered keystream.
impl std::fmt::Debug for Aes128Ctr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes128Ctr")
            .field("aes", &self.aes)
            .field("nonce", &self.nonce)
            .field("counter", &self.counter)
            .finish_non_exhaustive()
    }
}

impl Aes128Ctr {
    /// Starts a keystream for `nonce` with the block counter at 0 (the
    /// [`ctr_xor`] convention).
    pub fn new(aes: &Aes128, nonce: u64) -> Self {
        Self::with_counter(aes, nonce, 0)
    }

    /// Starts a keystream with an explicit initial block counter. The
    /// counter occupies the low 64 bits of the counter block (the high half
    /// is `nonce`), so this can express standard test vectors such as SP
    /// 800-38A's `f0f1…feff` initial counter block. The counter wraps at
    /// 2^64 rather than carrying into the nonce.
    pub fn with_counter(aes: &Aes128, nonce: u64, counter: u64) -> Self {
        Aes128Ctr {
            aes: aes.clone(),
            nonce,
            counter,
            ks: [0u8; 16],
            ks_off: 16,
        }
    }

    /// XORs the next `data.len()` keystream bytes into `data`, advancing the
    /// stream position. Full blocks go through the same batched keystream
    /// loop as [`Aes128::ctr_xor`].
    pub fn xor(&mut self, data: &mut [u8]) {
        let mut data = data;
        // Drain keystream left over from a previous partial block.
        if self.ks_off < 16 {
            let take = data.len().min(16 - self.ks_off);
            let (head, rest) = data.split_at_mut(take);
            for (b, k) in head.iter_mut().zip(&self.ks[self.ks_off..]) {
                *b ^= k;
            }
            self.ks_off += take;
            data = rest;
        }
        let (full, rem) = data.split_at_mut(data.len() & !15);
        self.counter = self.aes.xor_keystream(self.nonce, self.counter, full);
        if !rem.is_empty() {
            // Keep the whole block's keystream for the next call.
            self.ks = [0u8; 16];
            self.counter = self
                .aes
                .xor_keystream(self.nonce, self.counter, &mut self.ks);
            for (b, k) in rem.iter_mut().zip(self.ks.iter()) {
                *b ^= k;
            }
            self.ks_off = rem.len();
        }
    }
}

/// XORs `data` in place with the AES-CTR keystream for (`key`, `nonce`).
///
/// CTR mode is an involution, so the same call encrypts and decrypts. The
/// 8-byte nonce occupies the top half of the counter block; the block counter
/// occupies the bottom half.
///
/// This is a compatibility wrapper that expands the key schedule on every
/// call. Callers in loops should build an [`Aes128`] once and use
/// [`Aes128::ctr_xor`] or [`Aes128Ctr`].
pub fn ctr_xor(key: &[u8; 16], nonce: u64, data: &mut [u8]) {
    Aes128::new(key).ctr_xor(nonce, data);
}

/// An encrypted and authenticated blob: AES-CTR then HMAC-SHA256 over
/// (context ‖ nonce ‖ ciphertext).
///
/// `context` binds the box to its use site — for ghost page swapping the VM
/// passes the virtual page number, so the OS cannot replay a page swapped
/// from one address into another (paper §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBox {
    nonce: u64,
    ciphertext: Vec<u8>,
    tag: [u8; 32],
}

/// Error returned by [`SealedBox::open`] when authentication fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSealedBoxError;

impl std::fmt::Display for OpenSealedBoxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sealed box authentication failed")
    }
}

impl std::error::Error for OpenSealedBoxError {}

impl SealedBox {
    /// Seals `plaintext` under the given keys, bound to `context`.
    ///
    /// The nonce is derived from the context; callers that seal the same
    /// context twice with different contents (e.g. re-swapping a dirty page)
    /// still get integrity because the MAC covers the fresh ciphertext.
    ///
    /// Convenience form that expands both keys per call; hot paths hold an
    /// [`Aes128`] + [`HmacKey`] and use [`SealedBox::seal_with`].
    pub fn seal(enc_key: &[u8; 16], mac_key: &[u8; 32], context: u64, plaintext: &[u8]) -> Self {
        Self::seal_with(
            &Aes128::new(enc_key),
            &HmacKey::new(mac_key),
            context,
            plaintext,
        )
    }

    /// Seals `plaintext` using pre-expanded cipher and MAC key material:
    /// one keystream pass, one MAC pass, no per-call key setup.
    pub fn seal_with(cipher: &Aes128, mac_key: &HmacKey, context: u64, plaintext: &[u8]) -> Self {
        let mut stream = Self::sealer(cipher, mac_key, context);
        stream.write(plaintext);
        stream.finish()
    }

    /// Starts a streaming seal bound to `context`: feed plaintext in chunks
    /// with [`SealStream::write`], then [`SealStream::finish`]. Produces a
    /// box byte-identical to [`SealedBox::seal_with`] over the concatenated
    /// chunks, without ever materializing the full plaintext.
    pub fn sealer(cipher: &Aes128, mac_key: &HmacKey, context: u64) -> SealStream {
        let nonce = context ^ 0x5653_4143_4845_u64; // context-derived, deterministic
        let mut mac = mac_key.hasher();
        mac.update(&context.to_be_bytes());
        mac.update(&nonce.to_be_bytes());
        SealStream {
            ctr: Aes128Ctr::new(cipher, nonce),
            mac,
            nonce,
            ciphertext: Vec::new(),
        }
    }

    /// Opens the box, verifying the MAC and the binding `context`.
    ///
    /// # Errors
    ///
    /// Returns [`OpenSealedBoxError`] if the ciphertext, tag, or context have
    /// been tampered with — this is how Virtual Ghost detects the OS
    /// corrupting a swapped ghost page.
    pub fn open(
        &self,
        enc_key: &[u8; 16],
        mac_key: &[u8; 32],
        context: u64,
    ) -> Result<Vec<u8>, OpenSealedBoxError> {
        self.open_with(&Aes128::new(enc_key), &HmacKey::new(mac_key), context)
    }

    /// Opens the box using pre-expanded key material: one MAC pass to verify
    /// (before any plaintext is produced), then one keystream pass.
    ///
    /// # Errors
    ///
    /// Returns [`OpenSealedBoxError`] on any tampering, exactly like
    /// [`SealedBox::open`].
    pub fn open_with(
        &self,
        cipher: &Aes128,
        mac_key: &HmacKey,
        context: u64,
    ) -> Result<Vec<u8>, OpenSealedBoxError> {
        let expect = Self::tag_with(mac_key, context, self.nonce, &self.ciphertext);
        let mut diff = 0u8;
        for (a, b) in expect.iter().zip(&self.tag) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(OpenSealedBoxError);
        }
        let mut pt = self.ciphertext.clone();
        cipher.ctr_xor(self.nonce, &mut pt);
        Ok(pt)
    }

    /// Ciphertext length in bytes.
    pub fn len(&self) -> usize {
        self.ciphertext.len()
    }

    /// Whether the sealed payload is empty.
    pub fn is_empty(&self) -> bool {
        self.ciphertext.is_empty()
    }

    /// The context-derived nonce.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// The raw ciphertext.
    pub fn ciphertext(&self) -> &[u8] {
        &self.ciphertext
    }

    /// The 32-byte authentication tag.
    pub fn tag(&self) -> &[u8; 32] {
        &self.tag
    }

    /// Mutable access to the raw ciphertext — used by attack simulations that
    /// model the OS flipping bits in swapped-out pages.
    pub fn ciphertext_mut(&mut self) -> &mut Vec<u8> {
        &mut self.ciphertext
    }

    fn tag_with(mac_key: &HmacKey, context: u64, nonce: u64, ct: &[u8]) -> [u8; 32] {
        let mut mac = mac_key.hasher();
        mac.update(&context.to_be_bytes());
        mac.update(&nonce.to_be_bytes());
        mac.update(ct);
        mac.finalize()
    }
}

/// In-progress streaming seal created by [`SealedBox::sealer`]: the CTR
/// keystream and the MAC run incrementally as chunks arrive, so sealing is
/// single-pass no matter how the plaintext is delivered.
#[derive(Debug)]
pub struct SealStream {
    ctr: Aes128Ctr,
    mac: HmacSha256,
    nonce: u64,
    ciphertext: Vec<u8>,
}

impl SealStream {
    /// Encrypts and MACs the next plaintext chunk.
    pub fn write(&mut self, chunk: &[u8]) {
        let start = self.ciphertext.len();
        self.ciphertext.extend_from_slice(chunk);
        let ct = &mut self.ciphertext[start..];
        self.ctr.xor(ct);
        self.mac.update(ct);
    }

    /// Finishes the MAC and returns the sealed box.
    pub fn finish(self) -> SealedBox {
        SealedBox {
            nonce: self.nonce,
            ciphertext: self.ciphertext,
            tag: self.mac.finalize(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 197 Appendix B vector.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(pt), expect);
        assert_eq!(aes.decrypt_block(expect), pt);
    }

    // FIPS 197 Appendix C.1 vector.
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(pt), expect);
        assert_eq!(aes.decrypt_block(expect), pt);
    }

    #[test]
    fn ctr_roundtrip_odd_length() {
        let key = [0xabu8; 16];
        let mut data: Vec<u8> = (0..37u8).collect();
        let orig = data.clone();
        ctr_xor(&key, 99, &mut data);
        assert_ne!(data, orig);
        ctr_xor(&key, 99, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn ctr_distinct_nonces_differ() {
        let key = [1u8; 16];
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        ctr_xor(&key, 1, &mut a);
        ctr_xor(&key, 2, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn ctr_stream_matches_oneshot_across_splits() {
        let key = [0x5au8; 16];
        let aes = Aes128::new(&key);
        let data: Vec<u8> = (0..257u16).map(|i| i as u8).collect();
        let mut oneshot = data.clone();
        ctr_xor(&key, 7, &mut oneshot);
        for split in [0, 1, 15, 16, 17, 63, 64, 65, 100, 256, 257] {
            let mut buf = data.clone();
            let mut ctr = Aes128Ctr::new(&aes, 7);
            ctr.xor(&mut buf[..split]);
            ctr.xor(&mut buf[split..]);
            assert_eq!(buf, oneshot, "split at {split}");
        }
    }

    /// The same key schedule on the T-table round function, whatever the
    /// host CPU — the only path on hosts without AES-NI, kept under test on
    /// hosts that have it.
    fn table_backed(key: &[u8; 16]) -> Aes128 {
        Aes128 {
            #[cfg(target_arch = "x86_64")]
            ni: None,
            ..Aes128::new(key)
        }
    }

    /// The backend `Aes128::new` picks on this host, then the T-table one.
    fn backends(key: &[u8; 16]) -> [Aes128; 2] {
        [Aes128::new(key), table_backed(key)]
    }

    /// `E(nonce ‖ counter + i)` keystream from the reference cipher, with
    /// the counter wrapping at 2^64.
    fn reference_ctr(key: &[u8; 16], nonce: u64, counter: u64, data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(16).enumerate() {
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&nonce.to_be_bytes());
            block[8..].copy_from_slice(&counter.wrapping_add(i as u64).to_be_bytes());
            let ks = crate::reference::encrypt_block(key, block);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    /// Every length up to three batches plus 17 bytes, so every remainder
    /// after an 8-block batch shows up.
    const MAX_LEN: usize = 3 * BATCH_BYTES + 17;

    proptest::proptest! {
        #[test]
        fn backends_match_reference_on_blocks(
            key in proptest::prelude::any::<[u8; 16]>(),
            block in proptest::prelude::any::<[u8; 16]>(),
        ) {
            let ct = crate::reference::encrypt_block(&key, block);
            let pt = crate::reference::decrypt_block(&key, block);
            for aes in backends(&key) {
                proptest::prop_assert_eq!(aes.encrypt_block(block), ct);
                proptest::prop_assert_eq!(aes.decrypt_block(block), pt);
            }
        }

        #[test]
        fn backends_match_reference_on_ctr(
            key in proptest::prelude::any::<[u8; 16]>(),
            nonce in proptest::prelude::any::<u64>(),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..MAX_LEN + 1),
        ) {
            let mut expect = data.clone();
            crate::reference::ctr_xor(&key, nonce, &mut expect);
            for aes in backends(&key) {
                let mut got = data.clone();
                aes.ctr_xor(nonce, &mut got);
                proptest::prop_assert_eq!(&got, &expect);
            }
        }

        #[test]
        fn counter_wraps_inside_a_batch(
            key in proptest::prelude::any::<[u8; 16]>(),
            nonce in proptest::prelude::any::<u64>(),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..MAX_LEN + 1),
            splits in proptest::collection::vec(0usize..MAX_LEN + 1, 0..6),
        ) {
            let start = u64::MAX - 3;
            let mut expect = data.clone();
            reference_ctr(&key, nonce, start, &mut expect);
            let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
            cuts.sort_unstable();
            for aes in backends(&key) {
                let mut got = data.clone();
                let mut stream = Aes128Ctr::with_counter(&aes, nonce, start);
                let mut prev = 0;
                for &cut in &cuts {
                    stream.xor(&mut got[prev..cut]);
                    prev = cut;
                }
                stream.xor(&mut got[prev..]);
                proptest::prop_assert_eq!(&got, &expect);
            }
        }
    }

    #[test]
    fn backends_match_reference_at_every_length() {
        let key: [u8; 16] = core::array::from_fn(|i| (i * 37 + 5) as u8);
        let data: Vec<u8> = (0..MAX_LEN).map(|i| (i * 7) as u8).collect();
        for nonce in [0, 1, u64::MAX] {
            for len in 0..=MAX_LEN {
                let mut expect = data[..len].to_vec();
                crate::reference::ctr_xor(&key, nonce, &mut expect);
                for aes in backends(&key) {
                    let mut got = data[..len].to_vec();
                    aes.ctr_xor(nonce, &mut got);
                    assert_eq!(got, expect, "len {len}, nonce {nonce}, {aes:?}");
                }
            }
        }
    }

    /// A silent fallback to the T-tables passes every correctness test, so
    /// pin the selection itself.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn new_picks_aes_ni_when_the_cpu_has_it() {
        let has_aes = std::arch::is_x86_feature_detected!("aes");
        let aes = Aes128::new(&[9; 16]);
        assert_eq!(aes.ni.is_some(), has_aes);
        let name = if has_aes { "aes-ni" } else { "t-table" };
        assert_eq!(
            format!("{aes:?}"),
            format!("Aes128 {{ backend: {name:?}, .. }}")
        );
        assert!(table_backed(&[9; 16]).ni.is_none());
    }

    #[test]
    fn debug_never_prints_key_material() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let aes = Aes128::new(&key);
        let mut ctr = Aes128Ctr::new(&aes, 5);
        ctr.xor(&mut [0u8; 3]);
        let shown = [
            format!("{aes:?}"),
            format!("{aes:#?}"),
            format!("{:?}", table_backed(&key)),
            format!("{ctr:?}"),
        ];
        for dbg in &shown {
            // ek[0..4] is the raw key.
            for w in &aes.ek[..4] {
                assert!(!dbg.contains(&w.to_string()), "{dbg}");
                assert!(!dbg.contains(&format!("{w:x}")), "{dbg}");
            }
            assert!(!dbg.contains(&format!("{key:?}")), "{dbg}");
            assert!(!dbg.contains(&format!("{:?}", ctr.ks)), "{dbg}");
        }
    }

    #[test]
    fn sealed_box_roundtrip() {
        let sealed = SealedBox::seal(&[3; 16], &[4; 32], 7, b"page data here");
        assert_eq!(
            sealed.open(&[3; 16], &[4; 32], 7).unwrap(),
            b"page data here"
        );
    }

    #[test]
    fn seal_with_matches_seal_and_streams() {
        let cipher = Aes128::new(&[3; 16]);
        let mac = HmacKey::new(&[4; 32]);
        let oneshot = SealedBox::seal(&[3; 16], &[4; 32], 7, b"page data here");
        assert_eq!(
            SealedBox::seal_with(&cipher, &mac, 7, b"page data here"),
            oneshot
        );
        let mut s = SealedBox::sealer(&cipher, &mac, 7);
        s.write(b"page ");
        s.write(b"data");
        s.write(b" here");
        let streamed = s.finish();
        assert_eq!(streamed, oneshot);
        assert_eq!(
            streamed.open_with(&cipher, &mac, 7).unwrap(),
            b"page data here"
        );
    }

    #[test]
    fn sealed_box_detects_tamper() {
        let mut sealed = SealedBox::seal(&[3; 16], &[4; 32], 7, b"page data here");
        sealed.ciphertext_mut()[0] ^= 1;
        assert_eq!(sealed.open(&[3; 16], &[4; 32], 7), Err(OpenSealedBoxError));
    }

    #[test]
    fn sealed_box_detects_context_replay() {
        // A page swapped out from vpn 7 must not be accepted for vpn 8.
        let sealed = SealedBox::seal(&[3; 16], &[4; 32], 7, b"page data here");
        assert!(sealed.open(&[3; 16], &[4; 32], 8).is_err());
    }

    #[test]
    fn sealed_box_wrong_keys_rejected() {
        let sealed = SealedBox::seal(&[3; 16], &[4; 32], 7, b"x");
        assert!(sealed.open(&[3; 16], &[5; 32], 7).is_err());
    }

    #[test]
    fn empty_box() {
        let sealed = SealedBox::seal(&[0; 16], &[0; 32], 0, b"");
        assert!(sealed.is_empty());
        assert_eq!(sealed.len(), 0);
        assert_eq!(sealed.open(&[0; 16], &[0; 32], 0).unwrap(), b"");
    }
}
