//! Random initialisation helpers for network parameters and synthetic data.
//!
//! All randomness in the workspace is seeded explicitly so experiments are
//! reproducible run-to-run; nothing here touches a global RNG.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG used across the workspace (seeded `StdRng`).
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Tensor with elements drawn uniformly from `[lo, hi)`.
pub fn uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(shape, data).expect("shape/product always consistent")
}

/// Tensor with elements drawn from a normal distribution `N(mean, std²)`
/// using the Box–Muller transform (avoids pulling `rand_distr` into this crate).
pub fn normal(shape: &[usize], mean: f32, std: f32, rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(mean + std * r * theta.cos());
        if data.len() < n {
            data.push(mean + std * r * theta.sin());
        }
    }
    Tensor::from_vec(shape, data).expect("shape/product always consistent")
}

/// Kaiming/He-style fan-in initialisation for convolution and dense weights:
/// normal with `std = sqrt(2 / fan_in)`.
pub fn kaiming(shape: &[usize], fan_in: usize, rng: &mut StdRng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    normal(shape, 0.0, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut r1 = rng(42);
        let mut r2 = rng(42);
        let a = uniform(&[16], -1.0, 1.0, &mut r1);
        let b = uniform(&[16], -1.0, 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = rng(7);
        let t = uniform(&[1000], -0.5, 0.5, &mut r);
        assert!(t.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut r = rng(3);
        let t = normal(&[20_000], 1.0, 2.0, &mut r);
        let mean = t.mean();
        let var = t
            .as_slice()
            .iter()
            .map(|&v| (v - mean).powi(2))
            .sum::<f32>()
            / t.len() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn kaiming_scale_shrinks_with_fan_in() {
        let mut r = rng(5);
        let small = kaiming(&[4096], 8, &mut r);
        let large = kaiming(&[4096], 512, &mut r);
        let std_small = (small.sq_norm() / small.len() as f32).sqrt();
        let std_large = (large.sq_norm() / large.len() as f32).sqrt();
        assert!(std_small > std_large * 3.0);
    }
}
