//! Seeded random tensor initialization.

use crate::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use rand_distr::{Distribution, Normal, Uniform};
use serde::{Deserialize, Serialize};

/// A deterministic random number generator for tensor initialization and
/// sampling.
///
/// Wraps `ChaCha12Rng` so that every experiment in the reproduction is
/// seedable and bit-for-bit repeatable across platforms.
///
/// # Examples
///
/// ```
/// use chiron_tensor::{Init, TensorRng};
///
/// let mut rng = TensorRng::seed_from(42);
/// let w = rng.init(&[4, 4], Init::XavierUniform);
/// assert_eq!(w.numel(), 16);
/// assert!(w.as_slice().iter().all(|x| x.abs() <= 1.0));
/// ```
#[derive(Clone)]
pub struct TensorRng {
    rng: ChaCha12Rng,
}

/// Serializable snapshot of a [`TensorRng`]'s exact stream position.
///
/// Captured with [`TensorRng::state`] and rebuilt with
/// [`TensorRng::from_state`], so a checkpointed run resumes the stream
/// bit-for-bit. The word arrays are stored as `Vec<u32>` to keep the JSON
/// encoding simple; [`TensorRng::from_state`] validates the lengths.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngState {
    /// ChaCha cipher state (16 words: constants, key, counter, nonce).
    pub state: Vec<u32>,
    /// Current keystream block (16 words).
    pub block: Vec<u32>,
    /// Next unserved word within the block; 16 means "exhausted".
    pub index: u8,
}

/// Weight-initialization schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// All zeros (biases).
    Zeros,
    /// Constant value.
    Constant(f32),
    /// Uniform on `[lo, hi)`.
    Uniform(f32, f32),
    /// Normal with mean 0 and the given standard deviation.
    Normal(f32),
    /// Xavier/Glorot uniform: `U(±sqrt(6/(fan_in+fan_out)))`, suited to
    /// tanh networks (the DRL policy nets).
    XavierUniform,
    /// He/Kaiming normal: `N(0, sqrt(2/fan_in))`, suited to ReLU networks
    /// (the paper's CNNs).
    HeNormal,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            rng: ChaCha12Rng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; used to give each layer or
    /// each edge node its own stream so adding components never perturbs
    /// existing ones.
    pub fn fork(&mut self) -> Self {
        Self {
            rng: ChaCha12Rng::seed_from_u64(self.rng.gen()),
        }
    }

    /// Samples a tensor of the given shape under the chosen scheme.
    ///
    /// For the fan-based schemes the shape is interpreted as a matrix via
    /// [`crate::Shape::as_matrix`]: `fan_in` is the row count and `fan_out`
    /// the column count, matching a `(in, out)` weight layout.
    ///
    /// The storage comes from the [`scratch`](crate::scratch) arena, where
    /// the tensor's drop returns it, so building and dropping networks
    /// repeatedly reuses the same buffers instead of growing the arena.
    pub fn init(&mut self, dims: &[usize], scheme: Init) -> Tensor {
        let t = Tensor::zeros(dims);
        let (fan_in, fan_out) = t.shape().as_matrix();
        let n = t.numel();
        let mut data = crate::scratch::take_vec_with_capacity(n);
        match scheme {
            Init::Zeros => data.resize(n, 0.0),
            Init::Constant(c) => data.resize(n, c),
            Init::Uniform(lo, hi) => {
                let d = Uniform::new(lo, hi);
                data.extend((0..n).map(|_| d.sample(&mut self.rng)));
            }
            Init::Normal(std) => {
                let d = Normal::new(0.0, std as f64).expect("std must be finite");
                data.extend((0..n).map(|_| d.sample(&mut self.rng) as f32));
            }
            Init::XavierUniform => {
                let bound = (6.0 / (fan_in + fan_out) as f64).sqrt() as f32;
                let d = Uniform::new(-bound, bound);
                data.extend((0..n).map(|_| d.sample(&mut self.rng)));
            }
            Init::HeNormal => {
                let std = (2.0 / fan_in as f64).sqrt();
                let d = Normal::new(0.0, std).expect("std must be finite");
                data.extend((0..n).map(|_| d.sample(&mut self.rng) as f32));
            }
        }
        Tensor::from_vec(data, dims)
    }

    /// Samples a single standard-normal value.
    pub fn normal(&mut self) -> f64 {
        Normal::new(0.0, 1.0).expect("valid").sample(&mut self.rng)
    }

    /// Samples uniformly from `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    /// Samples a uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            xs.swap(i, j);
        }
    }

    /// Exposes the inner RNG for distribution sampling by other crates.
    pub fn inner(&mut self) -> &mut ChaCha12Rng {
        &mut self.rng
    }

    /// Snapshots the exact stream position for checkpointing.
    pub fn state(&self) -> RngState {
        let (state, block, index) = self.rng.raw_state();
        RngState {
            state: state.to_vec(),
            block: block.to_vec(),
            index,
        }
    }

    /// Rebuilds a generator from a snapshot taken by [`TensorRng::state`].
    ///
    /// Returns `None` if the snapshot's word arrays do not have exactly 16
    /// entries (a corrupted or hand-edited checkpoint) — callers map this to
    /// their own typed error instead of panicking.
    pub fn from_state(snapshot: &RngState) -> Option<Self> {
        let state: [u32; 16] = snapshot.state.as_slice().try_into().ok()?;
        let block: [u32; 16] = snapshot.block.as_slice().try_into().ok()?;
        Some(Self {
            rng: ChaCha12Rng::from_raw_state(state, block, snapshot.index),
        })
    }
}

impl std::fmt::Debug for TensorRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TensorRng").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TensorRng::seed_from(7);
        let mut b = TensorRng::seed_from(7);
        let ta = a.init(&[3, 3], Init::Normal(1.0));
        let tb = b.init(&[3, 3], Init::Normal(1.0));
        assert_eq!(ta.as_slice(), tb.as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TensorRng::seed_from(1);
        let mut b = TensorRng::seed_from(2);
        let ta = a.init(&[8], Init::Uniform(0.0, 1.0));
        let tb = b.init(&[8], Init::Uniform(0.0, 1.0));
        assert_ne!(ta.as_slice(), tb.as_slice());
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = TensorRng::seed_from(3);
        let w = rng.init(&[10, 10], Init::XavierUniform);
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(w.as_slice().iter().all(|x| x.abs() <= bound));
    }

    #[test]
    fn he_normal_has_plausible_scale() {
        let mut rng = TensorRng::seed_from(4);
        let w = rng.init(&[100, 100], Init::HeNormal);
        let var = w.as_slice().iter().map(|x| x * x).sum::<f32>() / 10_000.0;
        let expected = 2.0 / 100.0;
        assert!((var - expected).abs() < expected * 0.3, "var {var}");
    }

    #[test]
    fn constant_and_zero_schemes() {
        let mut rng = TensorRng::seed_from(5);
        assert_eq!(rng.init(&[2], Init::Zeros).as_slice(), &[0.0, 0.0]);
        assert_eq!(rng.init(&[2], Init::Constant(0.5)).as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn fork_decouples_streams() {
        let mut parent = TensorRng::seed_from(9);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let a = c1.init(&[4], Init::Normal(1.0));
        let b = c2.init(&[4], Init::Normal(1.0));
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn state_round_trips_through_serde() {
        let mut a = TensorRng::seed_from(13);
        // Advance so the snapshot captures a mid-stream position.
        for _ in 0..7 {
            let _ = a.normal();
        }
        let json = serde_json::to_string(&a.state()).expect("serialize");
        let snapshot: RngState = serde_json::from_str(&json).expect("deserialize");
        let mut b = TensorRng::from_state(&snapshot).expect("valid snapshot");
        for _ in 0..32 {
            assert_eq!(a.normal().to_bits(), b.normal().to_bits());
            assert_eq!(a.uniform(0.0, 1.0).to_bits(), b.uniform(0.0, 1.0).to_bits());
        }
    }

    #[test]
    fn from_state_rejects_wrong_lengths() {
        let mut snapshot = TensorRng::seed_from(1).state();
        snapshot.block.pop();
        assert!(TensorRng::from_state(&snapshot).is_none());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = TensorRng::seed_from(11);
        let mut xs: Vec<usize> = (0..20).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
