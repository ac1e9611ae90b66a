//! Oracle tests for the dispatched crypto kernels: every fast path must
//! produce the bytes of the portable code it replaces.
//!
//! - SHA-256: the run-time-dispatched `compress_blocks` (SHA-NI where the
//!   CPU has it) against the scalar `compress_blocks_scalar`. Hashing in
//!   arbitrary splits is `prop_crypto::sha256_incremental_equals_oneshot`.
//! - ChaCha20: `apply` (four-block SSE2 runs plus a per-block tail)
//!   against XOR with one `block` per 64 bytes, across counter wrap.
//! - HMAC/HKDF: `HmacKey` midstates and `Prk` reuse against the one-shot
//!   `hmac_sha256` and `derive_key`.

use proptest::prelude::*;
use udc_crypto::chacha20::ChaCha20;
use udc_crypto::hkdf::{derive_key, Prk};
use udc_crypto::hmac::{hmac_sha256, HmacKey};
use udc_crypto::sha256::{compress_blocks, compress_blocks_scalar, has_sha_ni};

/// Keystream by the per-block reference: block `counter + i` (wrapping)
/// XORed into the `i`-th 64 bytes.
fn chacha_reference(key: &[u8; 32], nonce: &[u8; 12], counter: u32, data: &[u8]) -> Vec<u8> {
    let c = ChaCha20::new(key, nonce, counter);
    let mut out = data.to_vec();
    for (i, chunk) in out.chunks_mut(64).enumerate() {
        let ks = c.block(counter.wrapping_add(i as u32));
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
    out
}

#[test]
fn reports_which_sha256_path_ran() {
    if has_sha_ni() {
        println!("SHA-NI present: the dispatched compress is checked against the scalar oracle");
    } else {
        println!("SHA-NI absent: only the scalar SHA-256 path ran");
    }
}

#[test]
fn apply_advances_the_counter_like_per_block() {
    // After 300 bytes (one four-block run plus a partial block) the
    // next call continues at counter + 5, exactly as before.
    let key = [3u8; 32];
    let nonce = [4u8; 12];
    let data = vec![0u8; 364];
    let mut c = ChaCha20::new(&key, &nonce, u32::MAX - 2);
    let mut streamed = c.apply_to_vec(&data[..300]);
    streamed.extend(c.apply_to_vec(&data[300..]));
    let mut expected = chacha_reference(&key, &nonce, u32::MAX - 2, &data[..300]);
    expected.extend(chacha_reference(&key, &nonce, 2, &data[300..]));
    assert_eq!(streamed, expected);
}

proptest! {
    /// The dispatched compress equals the scalar oracle on runs of 1-64
    /// blocks from any starting state.
    #[test]
    fn dispatched_compress_equals_scalar(
        state in prop::collection::vec(any::<u32>(), 8..=8),
        blocks in 1usize..=64,
        seed in any::<u8>(),
    ) {
        let state: [u32; 8] = state.try_into().unwrap();
        let data: Vec<u8> = (0..blocks * 64)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect();
        let mut fast = state;
        compress_blocks(&mut fast, &data);
        let mut oracle = state;
        compress_blocks_scalar(&mut oracle, &data);
        prop_assert_eq!(fast, oracle);
    }

    /// `apply` equals the per-block reference for any length 0-1100 and
    /// any starting counter.
    #[test]
    fn chacha_apply_equals_per_block_reference(
        key in prop::array::uniform32(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        counter in any::<u32>(),
        len in 0usize..=1100,
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
        let got = ChaCha20::new(&key, &nonce, counter).apply_to_vec(&data);
        prop_assert_eq!(got, chacha_reference(&key, &nonce, counter, &data));
    }

    /// The same near `u32::MAX`, where four-block runs wrap the counter.
    #[test]
    fn chacha_apply_equals_reference_near_counter_wrap(
        key in prop::array::uniform32(any::<u8>()),
        counter in (u32::MAX - 4)..=u32::MAX,
        len in 0usize..=1100,
    ) {
        let nonce = [9u8; 12];
        let data: Vec<u8> = (0..len).map(|i| (i * 11) as u8).collect();
        let got = ChaCha20::new(&key, &nonce, counter).apply_to_vec(&data);
        prop_assert_eq!(got, chacha_reference(&key, &nonce, counter, &data));
    }

    /// `HmacKey` reuse and streamed parts equal one-shot HMAC, for keys
    /// shorter and longer than a block.
    #[test]
    fn hmac_key_equals_one_shot(
        key in prop::collection::vec(any::<u8>(), 0..200),
        msg in prop::collection::vec(any::<u8>(), 0..300),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
    ) {
        let hk = HmacKey::new(&key);
        let expected = hmac_sha256(&key, &msg);
        prop_assert_eq!(hk.mac(&msg), expected);
        let (mut a, mut b) = (cut_a % (msg.len() + 1), cut_b % (msg.len() + 1));
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        prop_assert_eq!(hk.mac_parts(&[&msg[..a], &msg[a..b], &msg[b..]]), expected);
        // The key is reusable: a second MAC is unaffected by the first.
        prop_assert_eq!(hk.mac(&msg), expected);
    }

    /// One extract expanded many times equals `derive_key` each time.
    #[test]
    fn prk_expand_equals_derive_key(
        ikm in prop::collection::vec(any::<u8>(), 0..100),
        salt in prop::collection::vec(any::<u8>(), 0..100),
        infos in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 1..6),
    ) {
        let prk = Prk::extract(&salt, &ikm);
        for info in &infos {
            prop_assert_eq!(prk.expand(info), derive_key(&ikm, &salt, info));
        }
    }
}
