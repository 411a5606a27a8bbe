//! # vg-crypto
//!
//! From-scratch cryptography for the Virtual Ghost reproduction.
//!
//! The paper's trust argument hinges on a small Trusted Computing Base that
//! performs its own cryptography: the Virtual Ghost VM encrypts and MACs
//! swapped ghost pages, decrypts per-application key sections with a private
//! key rooted in a TPM storage key, and exposes a trusted random number
//! generator to defeat Iago attacks. This crate provides those primitives
//! without external dependencies:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4, unrolled multi-block compress) and
//!   [`hmac`] — HMAC-SHA256 (RFC 2104) with precomputed per-key midstates
//!   ([`hmac::HmacKey`]).
//! * [`aes`] — AES-128 block cipher (FIPS 197) on AES-NI where the CPU has
//!   it and on compile-time T-tables elsewhere, chosen once per key, with
//!   batched CTR mode ([`aes::Aes128Ctr`]) and an encrypt-then-MAC
//!   [`aes::SealedBox`] used for ghost page swapping.
//! * [`reference`](mod@reference) — the retained textbook scalar
//!   implementations; both AES round functions and the rest of the
//!   optimized data plane are proven bit-identical to them by differential
//!   proptests (`tests/differential.rs` and the unit tests in `aes.rs`).
//! * [`bignum`] — arbitrary-precision unsigned arithmetic with modular
//!   exponentiation and Miller–Rabin primality testing.
//! * [`rsa`] — RSA key generation, encryption and signatures built on
//!   [`bignum`]. Key sizes are configurable; the simulator defaults to short
//!   keys for speed (documented in DESIGN.md — this is a systems simulation,
//!   not a production cryptosystem).
//! * [`rng`] — a deterministic ChaCha20-based generator standing in for the
//!   hardware entropy source behind the `sva.random` instruction.
//! * [`tpm`] — a simulated Trusted Platform Module holding the storage key
//!   that anchors the paper's chain of trust:
//!   TPM storage key ⇒ Virtual Ghost private key ⇒ application private key.
//!
//! ## Example
//!
//! ```
//! use vg_crypto::{aes::SealedBox, sha256::Sha256};
//!
//! let key = [7u8; 16];
//! let mac_key = [9u8; 32];
//! let sealed = SealedBox::seal(&key, &mac_key, 42, b"ghost page contents");
//! let opened = sealed.open(&key, &mac_key, 42).expect("page is intact");
//! assert_eq!(opened, b"ghost page contents");
//! assert_eq!(Sha256::digest(b"abc").len(), 32);
//! ```

pub mod aes;
pub mod bignum;
pub mod hmac;
pub mod reference;
pub mod rng;
pub mod rsa;
pub mod sha256;
pub mod tpm;

pub use aes::{Aes128, Aes128Ctr, SealedBox};
pub use bignum::BigUint;
pub use hmac::{HmacKey, HmacSha256};
pub use rng::ChaChaRng;
pub use rsa::{RsaKeyPair, RsaPublicKey};
pub use sha256::Sha256;
pub use tpm::Tpm;
