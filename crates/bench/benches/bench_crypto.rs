//! Criterion micro-benchmarks for the crypto substrate: hashing,
//! encryption, sealing, key derivation, Merkle proofs and attestation
//! quotes.
//!
//! `crypto/sha256_scalar/4096` runs the portable compression function
//! over the same 65 blocks `crypto/sha256/4096` hashes, so the ratio is
//! the SHA-NI kernel's speedup; an `env/sha_ni` entry (1 or 0) records
//! whether the measuring CPU had the kernel at all, and
//! `bench_check --suite=crypto` enforces that floor only when it did.
//! `crypto/device_keys/{per_device,fused}/6400` derive the key of every
//! device of a 6,400-device datacenter the way `UdcCloud::new` did (one
//! `derive_key` each) and does (one extract, one expand each).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::collections::BTreeMap;
use std::hint::black_box;
use udc_crypto::aead::{open, seal, Key, Nonce};
use udc_crypto::attest::{AttestationPolicy, RootOfTrust, Verifier};
use udc_crypto::chacha20::ChaCha20;
use udc_crypto::hkdf::{derive_key, Prk};
use udc_crypto::merkle::MerkleTree;
use udc_crypto::sha256::{compress_blocks_scalar, has_sha_ni, sha256};
use udc_hal::DeviceId;

/// Devices in the largest bench datacenter (every default pool ×64).
const FLEET: u32 = 6400;

fn bench_primitives(c: &mut Criterion) {
    // The artifact must say whether this CPU had SHA-NI:
    // `bench_check --suite=crypto` enforces the kernel's speedup floor
    // only when it did.
    criterion::record_value("env/sha_ni", if has_sha_ni() { 1.0 } else { 0.0 });
    let mut group = c.benchmark_group("crypto/sha256");
    for size in [64usize, 4096, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| sha256(black_box(d)))
        });
    }
    group.finish();

    // 4 KiB plus its padding block: the 65 compressions `sha256` runs
    // for 4 KiB, on the scalar path.
    let padded = vec![0xabu8; 4096 + 64];
    c.bench_function("crypto/sha256_scalar/4096", |b| {
        b.iter(|| {
            let mut state = [0x6a09e667u32; 8];
            compress_blocks_scalar(&mut state, black_box(&padded));
            state
        })
    });

    let mut group = c.benchmark_group("crypto/chacha20");
    for size in [64usize, 4096, 65536] {
        let data = vec![0xcdu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| {
                let mut cipher = ChaCha20::new(&[7u8; 32], &[3u8; 12], 1);
                cipher.apply_to_vec(black_box(d))
            })
        });
    }
    group.finish();
}

fn bench_seal_open(c: &mut Criterion) {
    let key = Key::derive(b"tenant", b"S1");
    let payload = vec![0x5au8; 4096];
    c.bench_function("crypto/seal_4k", |b| {
        b.iter(|| seal(&key, Nonce::from_sequence(1), b"aad", black_box(&payload)))
    });
    let boxed = seal(&key, Nonce::from_sequence(1), b"aad", &payload);
    c.bench_function("crypto/open_4k", |b| {
        b.iter(|| open(&key, b"aad", black_box(&boxed)).unwrap())
    });
}

fn bench_key_derivation(c: &mut Criterion) {
    c.bench_function("crypto/derive_key", |b| {
        b.iter(|| derive_key(b"udc-hardware-root", b"device-key", black_box(b"dev4242")))
    });
    let ids: Vec<DeviceId> = (0..FLEET).map(DeviceId).collect();
    let ids = &ids;
    let mut group = c.interleaved_group("crypto/device_keys");
    group.bench_function(format!("per_device/{FLEET}"), move |b| {
        b.iter(|| {
            ids.iter()
                .map(|id| {
                    let key = derive_key(
                        b"udc-hardware-root",
                        b"device-key",
                        format!("{id}").as_bytes(),
                    );
                    (*id, key)
                })
                .collect::<BTreeMap<_, _>>()
        })
    });
    group.bench_function(format!("fused/{FLEET}"), move |b| {
        b.iter(|| {
            let root = Prk::extract(b"device-key", b"udc-hardware-root");
            ids.iter()
                .map(|id| (*id, root.expand(format!("{id}").as_bytes())))
                .collect::<BTreeMap<_, _>>()
        })
    });
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let chunks: Vec<Vec<u8>> = (0..256).map(|i| vec![i as u8; 4096]).collect();
    c.bench_function("crypto/merkle_build_256x4k", |b| {
        b.iter(|| MerkleTree::build(black_box(&chunks)).unwrap())
    });
    let tree = MerkleTree::build(&chunks).unwrap();
    let root = tree.root();
    let proof = tree.prove(100).unwrap();
    c.bench_function("crypto/merkle_verify", |b| {
        b.iter(|| MerkleTree::verify(black_box(&root), &chunks[100], &proof))
    });
}

fn bench_attestation(c: &mut Criterion) {
    let key = [9u8; 32];
    let mut rot = RootOfTrust::new("dev", key);
    rot.measure("boot: udc-runtime v1");
    rot.measure("load: module-A2");
    let nonce = [4u8; 32];
    let mut claims = BTreeMap::new();
    claims.insert("isolation".to_string(), "strongest".to_string());
    claims.insert("resources.cpu".to_string(), "4".to_string());
    c.bench_function("crypto/quote_generate", |b| {
        b.iter(|| rot.quote(black_box(nonce), claims.clone()))
    });
    let quote = rot.quote(nonce, claims);
    let mut verifier = Verifier::new();
    verifier.trust_device("dev", key);
    let policy = AttestationPolicy::measurement(rot.measurement())
        .require("isolation", "strongest")
        .require("resources.cpu", "4");
    c.bench_function("crypto/quote_verify", |b| {
        b.iter(|| verifier.verify(black_box(&quote), &nonce, &policy).unwrap())
    });
}

criterion_group!(
    benches,
    bench_primitives,
    bench_seal_open,
    bench_key_derivation,
    bench_merkle,
    bench_attestation
);
criterion_main!(benches);
