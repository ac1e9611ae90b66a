//! # udc-crypto — data protection and remote attestation for UDC
//!
//! Implements the security substrate §3.3 and §4 of the paper rely on:
//!
//! - **Confidentiality**: ChaCha20 stream cipher (RFC 8439 core).
//! - **Integrity**: SHA-256, HMAC-SHA256, and Merkle trees for protecting
//!   data that leaves an execution environment.
//! - **Replay protection**: monotonic-counter envelopes.
//! - **Authenticated encryption**: encrypt-then-MAC sealing combining the
//!   above.
//! - **Key derivation**: HKDF extract-and-expand built on HMAC. A
//!   [`hkdf::Prk`] is extracted once and expanded per key, and an
//!   [`hmac::HmacKey`] keeps the hash states after its two pad blocks, so
//!   callers deriving many keys from one secret (every device of a
//!   datacenter, every data module of an app) pay one expand each.
//! - **Remote attestation** (§4): measurement registers (PCR-like),
//!   quotes signed by a simulated hardware root of trust, and verifier-
//!   side freshness and policy checks — "users can verify important
//!   properties without trusting the vendor and by just trusting the
//!   hardware itself".
//!
//! ## Kernels
//!
//! SHA-256 compression dispatches at run time: on x86_64 CPUs with the
//! SHA extensions (plus SSSE3 and SSE4.1, detected with
//! `is_x86_feature_detected!`) it runs a SHA-NI kernel; everywhere else
//! the portable scalar function, which is also the oracle the kernel is
//! tested against (`sha256::compress_blocks_scalar`). ChaCha20
//! computes four blocks at a time in SSE2 lanes on x86_64 (part of the
//! baseline, so no detection) and one at a time elsewhere. There is no
//! feature flag or configuration: each path produces the same bytes,
//! and the known-answer and oracle tests hold on both.
//!
//! ## Security disclaimer
//!
//! These are *clean-room, simulation-grade* implementations written for
//! reproducing the paper's system behaviour. They are functionally
//! correct against published test vectors but are **not hardened against
//! side channels** and must not be used to protect real data. The SIMD
//! kernels are no more hardened than the scalar code they replace.

pub mod aead;
pub mod attest;
pub mod chacha20;
pub mod hkdf;
pub mod hmac;
pub mod merkle;
pub mod replay;
pub mod sha256;

pub use aead::{open, seal, AeadError, Key, Nonce, SealedBox};
pub use attest::{
    AttestError, AttestationPolicy, MeasurementRegister, Quote, RootOfTrust, Verifier,
};
pub use chacha20::ChaCha20;
pub use hkdf::derive_key;
pub use hmac::hmac_sha256;
pub use merkle::{MerkleProof, MerkleTree};
pub use replay::{ReplayError, ReplayGuard, SequencedMessage};
pub use sha256::{sha256, Sha256};
