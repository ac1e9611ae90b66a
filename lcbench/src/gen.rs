//! Seeded input generation. Every input the benchmark feeds the control
//! plane comes from here, so one `--seed` fixes the whole input stream.

use udc_spec::AppSpec;
use udc_workload::{
    analytics_fanout, medical_pipeline, microservice_chain, ml_serving_chain, random_app,
    RandomDagConfig,
};

/// SplitMix64: tiny, seedable, and independent of any RNG the program
/// under test uses.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6c63_6265_6e63_6831)
    }

    /// A child stream, so epoch `i`'s inputs do not depend on how many
    /// draws epoch `i - 1` made.
    pub fn fork(&self, salt: u64) -> Self {
        let mut r = Self(self.0 ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The five stock application shapes a tenant deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Medical,
    Microservice,
    MlServing,
    Analytics,
    /// `random_app` with 20 tasks, seeded by the payload.
    Random(u64),
}

/// Cycles through the five shapes in blocks of five, each block a
/// seeded permutation: every shape gets exactly a fifth of the ops
/// whatever the seed, so the seed moves the order and the random apps,
/// not the mix.
#[derive(Debug, Clone)]
pub struct ShapeCycle {
    rng: Rng,
    block: Vec<u64>,
}

impl ShapeCycle {
    pub fn new(rng: Rng) -> Self {
        Self {
            rng,
            block: Vec::new(),
        }
    }

    pub fn next_shape(&mut self) -> Shape {
        if self.block.is_empty() {
            self.block = (0..5).collect();
            for i in (1..5).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        match self.block.pop().expect("refilled above") {
            0 => Shape::Medical,
            1 => Shape::Microservice,
            2 => Shape::MlServing,
            3 => Shape::Analytics,
            _ => Shape::Random(self.rng.next_u64()),
        }
    }
}

impl Shape {
    pub fn build(self) -> AppSpec {
        match self {
            Shape::Medical => medical_pipeline(),
            Shape::Microservice => microservice_chain(8),
            Shape::MlServing => ml_serving_chain(4),
            Shape::Analytics => analytics_fanout(8),
            Shape::Random(seed) => random(seed),
        }
    }

    /// A stable tag for input digests.
    pub fn tag(self) -> u64 {
        match self {
            Shape::Medical => 1,
            Shape::Microservice => 2,
            Shape::MlServing => 3,
            Shape::Analytics => 4,
            Shape::Random(seed) => seed,
        }
    }
}

/// A seeded 20-task `random_app` with no seeded aspect conflicts, so
/// every submit is valid.
pub fn random(seed: u64) -> AppSpec {
    random_app(RandomDagConfig {
        tasks: 20,
        seed,
        ..Default::default()
    })
    .0
}

/// FNV-1a accumulator for identity digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self.u64(s.len() as u64);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
