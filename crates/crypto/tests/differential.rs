//! Differential proptests: the optimized crypto data plane (AES on the
//! backend `Aes128::new` picks for this host — AES-NI where the CPU has it,
//! T-tables elsewhere — batched CTR, unrolled multi-block SHA-256, HMAC
//! midstates, sealed boxes) must be bit-identical to the retained textbook
//! scalar implementations in `vg_crypto::reference` on arbitrary inputs.
//! The unit tests in `src/aes.rs` run both AES backends on every host.
//!
//! CI runs this file as an explicit step, mirroring the interpreter's
//! engine-equivalence gate.

use proptest::prelude::*;
use vg_crypto::aes::{ctr_xor, Aes128, Aes128Ctr, SealedBox};
use vg_crypto::hmac::{HmacKey, HmacSha256};
use vg_crypto::reference;
use vg_crypto::sha256::Sha256;

proptest! {
    // ---- AES block layer --------------------------------------------------

    #[test]
    fn encrypt_block_matches_reference(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let aes = Aes128::new(&key);
        prop_assert_eq!(aes.encrypt_block(block), reference::encrypt_block(&key, block));
    }

    #[test]
    fn decrypt_block_matches_reference(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let aes = Aes128::new(&key);
        prop_assert_eq!(aes.decrypt_block(block), reference::decrypt_block(&key, block));
    }

    // ---- CTR --------------------------------------------------------------

    #[test]
    fn ctr_matches_reference(key in any::<[u8; 16]>(), nonce in any::<u64>(),
                             data in proptest::collection::vec(any::<u8>(), 0..600)) {
        let mut fast = data.clone();
        ctr_xor(&key, nonce, &mut fast);
        let mut slow = data.clone();
        reference::ctr_xor(&key, nonce, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn ctr_stream_matches_reference_across_splits(
        key in any::<[u8; 16]>(), nonce in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..400),
        splits in proptest::collection::vec(0usize..400, 0..5),
    ) {
        let aes = Aes128::new(&key);
        let mut fast = data.clone();
        let mut stream = Aes128Ctr::new(&aes, nonce);
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut prev = 0;
        for cut in cuts {
            stream.xor(&mut fast[prev..cut]);
            prev = cut;
        }
        stream.xor(&mut fast[prev..]);
        let mut slow = data.clone();
        reference::ctr_xor(&key, nonce, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    // ---- SHA-256 / HMAC ---------------------------------------------------

    #[test]
    fn sha256_matches_reference(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        prop_assert_eq!(Sha256::digest(&data), reference::sha256(&data));
    }

    #[test]
    fn sha256_streaming_matches_reference(
        data in proptest::collection::vec(any::<u8>(), 0..400),
        split in 0usize..400,
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), reference::sha256(&data));
    }

    #[test]
    fn hmac_matches_reference(key in proptest::collection::vec(any::<u8>(), 0..200),
                              data in proptest::collection::vec(any::<u8>(), 0..400)) {
        // Covers the >64-byte-key hash-the-key path as well.
        let expect = reference::hmac_sha256(&key, &data);
        prop_assert_eq!(HmacSha256::mac(&key, &data), expect);
        prop_assert_eq!(HmacKey::new(&key).mac(&data), expect);
    }

    // ---- SealedBox --------------------------------------------------------

    #[test]
    fn seal_matches_reference(enc in any::<[u8; 16]>(), mac in any::<[u8; 32]>(),
                              ctx in any::<u64>(),
                              data in proptest::collection::vec(any::<u8>(), 0..400)) {
        let sealed = SealedBox::seal(&enc, &mac, ctx, &data);
        let (nonce, ct, tag) = reference::seal(&enc, &mac, ctx, &data);
        prop_assert_eq!(sealed.nonce(), nonce);
        prop_assert_eq!(sealed.ciphertext(), &ct[..]);
        prop_assert_eq!(sealed.tag(), &tag);
        // The precomputed-key and streaming paths produce the same box.
        let cipher = Aes128::new(&enc);
        let mac_key = HmacKey::new(&mac);
        prop_assert_eq!(&SealedBox::seal_with(&cipher, &mac_key, ctx, &data), &sealed);
        let mut stream = SealedBox::sealer(&cipher, &mac_key, ctx);
        for chunk in data.chunks(7) {
            stream.write(chunk);
        }
        prop_assert_eq!(&stream.finish(), &sealed);
    }

    #[test]
    fn open_matches_reference(enc in any::<[u8; 16]>(), mac in any::<[u8; 32]>(),
                              ctx in any::<u64>(),
                              data in proptest::collection::vec(any::<u8>(), 0..400)) {
        let sealed = SealedBox::seal(&enc, &mac, ctx, &data);
        let via_ref = reference::open(
            &enc, &mac, ctx, sealed.nonce(), sealed.ciphertext(), sealed.tag(),
        );
        prop_assert_eq!(via_ref.as_deref(), Some(&data[..]));
        let opened = sealed.open(&enc, &mac, ctx).ok();
        prop_assert_eq!(opened.as_deref(), Some(&data[..]));
        let cipher = Aes128::new(&enc);
        let mac_key = HmacKey::new(&mac);
        let opened_with = sealed.open_with(&cipher, &mac_key, ctx).ok();
        prop_assert_eq!(opened_with.as_deref(), Some(&data[..]));
    }

    #[test]
    fn tamper_rejected_by_both(enc in any::<[u8; 16]>(), mac in any::<[u8; 32]>(),
                               data in proptest::collection::vec(any::<u8>(), 1..200),
                               byte in 0usize..200, bit in 0u8..8) {
        let mut sealed = SealedBox::seal(&enc, &mac, 9, &data);
        let len = sealed.len();
        sealed.ciphertext_mut()[byte % len] ^= 1 << bit;
        prop_assert!(sealed.open(&enc, &mac, 9).is_err());
        prop_assert!(sealed
            .open_with(&Aes128::new(&enc), &HmacKey::new(&mac), 9)
            .is_err());
        prop_assert!(reference::open(
            &enc, &mac, 9, sealed.nonce(), sealed.ciphertext(), sealed.tag(),
        )
        .is_none());
    }
}
