//! ChaCha20 stream cipher (RFC 8439), used for confidentiality of data
//! leaving an execution environment (§3.3).

/// ChaCha20 keystream generator / stream cipher.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
}

impl ChaCha20 {
    /// Creates a cipher instance from a 256-bit key and 96-bit nonce.
    /// The block counter starts at `counter` (RFC 8439 uses 1 for
    /// encryption when block 0 is reserved for a MAC key; we expose it).
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut k = [0u32; 8];
        for i in 0..8 {
            k[i] = u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
        }
        let mut n = [0u32; 3];
        for i in 0..3 {
            n[i] = u32::from_le_bytes([
                nonce[i * 4],
                nonce[i * 4 + 1],
                nonce[i * 4 + 2],
                nonce[i * 4 + 3],
            ]);
        }
        Self {
            key: k,
            nonce: n,
            counter,
        }
    }

    /// The 16-word input state for block `counter`.
    fn state(&self, counter: u32) -> [u32; 16] {
        [
            SIGMA[0],
            SIGMA[1],
            SIGMA[2],
            SIGMA[3],
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            counter,
            self.nonce[0],
            self.nonce[1],
            self.nonce[2],
        ]
    }

    /// One 64-byte keystream block: the portable block function, used
    /// for the tail of [`ChaCha20::apply`] and as the oracle for
    /// [`ChaCha20::block4`].
    #[doc(hidden)]
    pub fn block(&self, counter: u32) -> [u8; 64] {
        let mut state = self.state(counter);
        let initial = state;
        for _ in 0..10 {
            // Column rounds.
            quarter(&mut state, 0, 4, 8, 12);
            quarter(&mut state, 1, 5, 9, 13);
            quarter(&mut state, 2, 6, 10, 14);
            quarter(&mut state, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter(&mut state, 0, 5, 10, 15);
            quarter(&mut state, 1, 6, 11, 12);
            quarter(&mut state, 2, 7, 8, 13);
            quarter(&mut state, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = state[i].wrapping_add(initial[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Four consecutive keystream blocks, for counters `counter` to
    /// `counter + 3` (wrapping), computed side by side: lane `j` of each
    /// SSE2 register holds one state word of block `j`. SSE2 is part of
    /// the x86_64 baseline; other targets run [`ChaCha20::block`] four
    /// times.
    #[doc(hidden)]
    pub fn block4(&self, counter: u32) -> [u8; 256] {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: SSE2 is part of the x86_64 baseline, so every
            // x86_64 CPU supports the kernel's one target feature.
            unsafe { sse2::block4(&self.state(counter)) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let mut out = [0u8; 256];
            for (j, chunk) in out.chunks_exact_mut(64).enumerate() {
                chunk.copy_from_slice(&self.block(counter.wrapping_add(j as u32)));
            }
            out
        }
    }

    /// XORs the keystream into `data` in place (encryption and decryption
    /// are the same operation).
    pub fn apply(&mut self, data: &mut [u8]) {
        let mut counter = self.counter;
        let (runs, tail) = data.as_chunks_mut::<256>();
        for run in runs {
            let ks = self.block4(counter);
            for (b, k) in run.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(4);
        }
        for chunk in tail.chunks_mut(64) {
            let ks = self.block(counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
        self.counter = counter;
    }

    /// Convenience: encrypts a copy of `data`.
    pub fn apply_to_vec(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply(&mut out);
        out
    }
}

/// "expand 32-byte k"
const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The four-block kernel on SSE2 (baseline on x86_64, so no run-time
/// detection is needed).
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotl<const L: i32, const R: i32>(x: __m128i) -> __m128i {
        _mm_or_si128(_mm_slli_epi32::<L>(x), _mm_srli_epi32::<R>(x))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn quarter(v: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        v[a] = _mm_add_epi32(v[a], v[b]);
        // Rotating by 16 swaps the 16-bit halves of each lane.
        let x = _mm_xor_si128(v[d], v[a]);
        v[d] = _mm_shufflehi_epi16::<0xb1>(_mm_shufflelo_epi16::<0xb1>(x));
        v[c] = _mm_add_epi32(v[c], v[d]);
        v[b] = rotl::<12, 20>(_mm_xor_si128(v[b], v[c]));
        v[a] = _mm_add_epi32(v[a], v[b]);
        v[d] = rotl::<8, 24>(_mm_xor_si128(v[d], v[a]));
        v[c] = _mm_add_epi32(v[c], v[d]);
        v[b] = rotl::<7, 25>(_mm_xor_si128(v[b], v[c]));
    }

    /// Keystream blocks for the counters `state[12] + 0..4` (wrapping).
    #[target_feature(enable = "sse2")]
    pub(super) fn block4(state: &[u32; 16]) -> [u8; 256] {
        let mut initial = [_mm_setzero_si128(); 16];
        for (lane, &word) in initial.iter_mut().zip(state) {
            *lane = _mm_set1_epi32(word as i32);
        }
        // `_mm_add_epi32` wraps, exactly like `u32::wrapping_add`.
        initial[12] = _mm_add_epi32(initial[12], _mm_set_epi32(3, 2, 1, 0));
        let mut v = initial;
        for _ in 0..10 {
            quarter(&mut v, 0, 4, 8, 12);
            quarter(&mut v, 1, 5, 9, 13);
            quarter(&mut v, 2, 6, 10, 14);
            quarter(&mut v, 3, 7, 11, 15);
            quarter(&mut v, 0, 5, 10, 15);
            quarter(&mut v, 1, 6, 11, 12);
            quarter(&mut v, 2, 7, 8, 13);
            quarter(&mut v, 3, 4, 9, 14);
        }
        let mut out = [0u8; 256];
        for g in 0..4 {
            // Transpose words 4g..4g+4 from "one word, four blocks" to
            // "four words, one block"; x86_64 stores them little-endian.
            let a = _mm_add_epi32(v[4 * g], initial[4 * g]);
            let b = _mm_add_epi32(v[4 * g + 1], initial[4 * g + 1]);
            let c = _mm_add_epi32(v[4 * g + 2], initial[4 * g + 2]);
            let d = _mm_add_epi32(v[4 * g + 3], initial[4 * g + 3]);
            let ab_lo = _mm_unpacklo_epi32(a, b);
            let cd_lo = _mm_unpacklo_epi32(c, d);
            let ab_hi = _mm_unpackhi_epi32(a, b);
            let cd_hi = _mm_unpackhi_epi32(c, d);
            let rows = [
                _mm_unpacklo_epi64(ab_lo, cd_lo),
                _mm_unpackhi_epi64(ab_lo, cd_lo),
                _mm_unpacklo_epi64(ab_hi, cd_hi),
                _mm_unpackhi_epi64(ab_hi, cd_hi),
            ];
            for (j, row) in rows.into_iter().enumerate() {
                let at = 64 * j + 16 * g;
                // SAFETY: `at + 16 <= 256`, and the unaligned store has
                // no alignment requirement.
                unsafe { _mm_storeu_si128(out[at..at + 16].as_mut_ptr().cast(), row) };
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 8439 §2.3.2 block-function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let c = ChaCha20::new(&key, &nonce, 1);
        let block = c.block(1);
        assert_eq!(hex(&block[..16]), "10f1e7e4d13b5915500fdd1fa32071c4");
        assert_eq!(hex(&block[48..]), "b5129cd1de164eb9cbd083e8a2503c4e");
    }

    /// RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encryption_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut c = ChaCha20::new(&key, &nonce, 1);
        let ct = c.apply_to_vec(plaintext);
        assert_eq!(
            hex(&ct[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
        assert_eq!(hex(&ct[96..]), "5af90bbf74a35be6b40b8eedf2785e42874d");
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let msg: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        let ct = ChaCha20::new(&key, &nonce, 1).apply_to_vec(&msg);
        assert_ne!(ct, msg);
        let pt = ChaCha20::new(&key, &nonce, 1).apply_to_vec(&ct);
        assert_eq!(pt, msg);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let key = [9u8; 32];
        let nonce = [1u8; 12];
        let msg = vec![0x5au8; 200];
        let one_shot = ChaCha20::new(&key, &nonce, 0).apply_to_vec(&msg);
        let mut c = ChaCha20::new(&key, &nonce, 0);
        let mut streamed = Vec::new();
        // 64-byte-aligned chunks stream identically; counter advances per block.
        for chunk in msg.chunks(64) {
            streamed.extend_from_slice(&c.apply_to_vec(chunk));
        }
        assert_eq!(streamed, one_shot);
    }

    #[test]
    fn different_nonces_different_streams() {
        let key = [1u8; 32];
        let msg = vec![0u8; 64];
        let a = ChaCha20::new(&key, &[0u8; 12], 0).apply_to_vec(&msg);
        let b = ChaCha20::new(&key, &[1u8; 12], 0).apply_to_vec(&msg);
        assert_ne!(a, b);
    }
}
