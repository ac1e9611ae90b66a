//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use udc_crypto::aead::{open, seal, Key, Nonce};
use udc_crypto::chacha20::ChaCha20;
use udc_crypto::merkle::MerkleTree;
use udc_crypto::replay::ReplayGuard;
use udc_crypto::sha256::{sha256, Sha256};

proptest! {
    /// Incremental hashing equals one-shot hashing for any chunking of
    /// up to 2 KiB into up to eight updates.
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..=2048),
        splits in prop::collection::vec(0usize..=2048, 0..8),
    ) {
        let oneshot = sha256(&data);
        let mut points: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        points.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for p in points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    /// ChaCha20 is an involution under the same key/nonce/counter.
    #[test]
    fn chacha_round_trip(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        counter in any::<u32>(),
        data in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let ct = ChaCha20::new(&key, &nonce, counter).apply_to_vec(&data);
        let pt = ChaCha20::new(&key, &nonce, counter).apply_to_vec(&ct);
        prop_assert_eq!(pt, data);
    }

    /// AEAD seal/open round-trips and any single-bit flip in the
    /// ciphertext is rejected.
    #[test]
    fn aead_round_trip_and_tamper(
        secret in prop::collection::vec(any::<u8>(), 1..64),
        aad in prop::collection::vec(any::<u8>(), 0..32),
        data in prop::collection::vec(any::<u8>(), 1..512),
        seq in 1u64..u64::MAX,
        flip_bit in 0usize..64,
    ) {
        let key = Key::derive(&secret, b"prop");
        let boxed = seal(&key, Nonce::from_sequence(seq), &aad, &data);
        prop_assert_eq!(open(&key, &aad, &boxed).unwrap(), data.clone());

        let mut tampered = boxed.clone();
        let bit = flip_bit % (tampered.ciphertext.len() * 8);
        tampered.ciphertext[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(open(&key, &aad, &tampered).is_err());
    }

    /// Every Merkle proof verifies; a proof never verifies a different
    /// leaf's content.
    #[test]
    fn merkle_proofs_sound(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..40),
        probe in any::<usize>(),
    ) {
        let tree = MerkleTree::build(&chunks).unwrap();
        let root = tree.root();
        let i = probe % chunks.len();
        let proof = tree.prove(i).unwrap();
        prop_assert!(MerkleTree::verify(&root, &chunks[i], &proof));
        // Cross-verification with a different chunk's content fails
        // unless that content happens to be byte-identical.
        let j = (i + 1) % chunks.len();
        if chunks[j] != chunks[i] {
            prop_assert!(!MerkleTree::verify(&root, &chunks[j], &proof));
        }
    }

    /// The replay guard accepts a strictly increasing subsequence and
    /// rejects every repeated element.
    #[test]
    fn replay_guard_semantics(seqs in prop::collection::vec(1u64..1000, 1..100)) {
        let mut guard = ReplayGuard::new();
        let mut high = 0u64;
        for s in seqs {
            let res = guard.check(s);
            if s > high {
                prop_assert!(res.is_ok());
                high = s;
            } else {
                prop_assert!(res.is_err());
            }
            prop_assert_eq!(guard.high_water(), high);
        }
    }

    /// Quotes verify if and only if untampered (signature covers claims).
    #[test]
    fn attestation_tamper_evident(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform32(any::<u8>()),
        events in prop::collection::vec("[a-z]{1,12}", 0..6),
        claim_val in "[a-z0-9]{1,8}",
    ) {
        use udc_crypto::attest::{AttestationPolicy, RootOfTrust, Verifier};
        let mut rot = RootOfTrust::new("d0", key);
        for e in &events {
            rot.measure(e);
        }
        let mut claims = std::collections::BTreeMap::new();
        claims.insert("k".to_string(), claim_val.clone());
        let quote = rot.quote(nonce, claims);
        let mut v = Verifier::new();
        v.trust_device("d0", key);
        let policy = AttestationPolicy::measurement(rot.measurement()).require("k", claim_val);
        prop_assert!(v.verify(&quote, &nonce, &policy).is_ok());

        let mut forged = quote.clone();
        forged.claims.insert("k".to_string(), "forged".to_string());
        prop_assert!(v.verify(&forged, &nonce, &policy).is_err());
    }
}
