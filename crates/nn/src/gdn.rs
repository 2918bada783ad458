//! Generalized Divisive Normalization (GDN) and its inverse (iGDN).
//!
//! GDN (Ballé et al.) normalises each channel by a learned combination of the
//! squared activations of all channels at the same spatial position:
//!
//! `y_c = x_c / sqrt(β_c + Σ_j γ_{c,j} · x_j²)`
//!
//! and iGDN multiplies instead of dividing. The paper replaces every classic
//! activation in AE-SZ with GDN/iGDN (encoder/decoder respectively) and
//! reports better reconstruction quality than ReLU/LeakyReLU/BatchNorm.
//!
//! β and γ must stay positive; they are stored as raw parameters whose squares
//! are used in the forward pass, which keeps the constraint differentiable.
//!
//! **Position tiles.** The one forward pass walks each sample in tiles of up
//! to `T = 64` contiguous positions: it squares every channel's run once into
//! a `c × T` tile, seeds `T` accumulators per output channel with `β_c`, adds
//! `γ_{c,j}·x_j²` in ascending `j`, and finishes with `x_c·√d` (iGDN) or
//! `x_c/√d` (GDN). Each element performs the same IEEE operations in the same
//! order as the per-position loop kept as [`gdn_reference`], so the two agree
//! bitwise (`tests/kernel_differential.rs`), but every step is a contiguous
//! 8-wide vector operation instead of a gather from channel planes one
//! `spatial` stride apart. Tails run the same kernel at the next power of two
//! (at least 8 SIMD lanes, not the codecs' block lanes) over zero-padded
//! squares and store only their live SIMD lanes; the channel count is
//! unbounded because the tile lives in
//! [`NnScratch`].

use crate::conv::Act5;
use crate::infer::{NnScratch, Shape};
use crate::layer::{infer_tensor, Layer, NnError, Param};
use aesz_tensor::Tensor;

/// Shared implementation of GDN (divide) and iGDN (multiply).
#[derive(Clone)]
pub struct Gdn {
    /// Raw β parameters; effective β = raw² + ε.
    beta_raw: Param,
    /// Raw γ parameters (C×C); effective γ = raw².
    gamma_raw: Param,
    channels: usize,
    spatial_rank: usize,
    inverse: bool,
    cached_input: Option<Tensor>,
}

const BETA_EPS: f32 = 1e-6;

/// Widest position tile: 64 lanes are eight AVX2 accumulators per output
/// channel, eight independent add chains that hide the add latency.
const TILE: usize = 64;

/// Effective β (`raw² + ε`) and γ (`raw²`) into the caller's buffers.
fn effective_coefficients(
    beta_raw: &[f32],
    gamma_raw: &[f32],
    beta: &mut [f32],
    gamma: &mut [f32],
) {
    for (b_eff, &b) in beta.iter_mut().zip(beta_raw) {
        *b_eff = b * b + BETA_EPS;
    }
    for (g_eff, &g) in gamma.iter_mut().zip(gamma_raw) {
        *g_eff = g * g;
    }
}

/// One tile of `T` lanes at positions `s0..s0 + t` (`t <= T`) of one sample
/// `x` (`c` planes of `spatial` values each): squares into `sq` (`c × T`,
/// zero past `t`), then per output channel `β_c ⊕ Σ_j γ_{c,j}·sq_j` in
/// ascending `j` across all lanes, stored for the live lanes only. Out of
/// line so the `T` accumulators stay in registers.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn tile<const T: usize>(
    x: &[f32],
    (s0, t): (usize, usize),
    spatial: usize,
    beta: &[f32],
    gamma: &[f32],
    sq: &mut [f32],
    inverse: bool,
    out: &mut [f32],
) {
    let c = beta.len();
    let sq = &mut sq[..c * T];
    for (j, sq_j) in sq.chunks_exact_mut(T).enumerate() {
        let (live, pad) = sq_j.split_at_mut(t);
        for (q, &v) in live.iter_mut().zip(&x[j * spatial + s0..][..t]) {
            *q = v * v;
        }
        pad.fill(0.0);
    }
    for (ch, grow) in gamma.chunks_exact(c).enumerate() {
        let mut acc = [beta[ch]; T];
        for (&g, sq_j) in grow.iter().zip(sq.chunks_exact(T)) {
            let sq_j: &[f32; T] = sq_j.try_into().expect("T-wide run");
            for i in 0..T {
                acc[i] += g * sq_j[i];
            }
        }
        let xc = &x[ch * spatial + s0..][..t];
        let oc = &mut out[ch * spatial + s0..][..t];
        if inverse {
            for ((o, &v), &d) in oc.iter_mut().zip(xc).zip(&acc) {
                *o = v * d.sqrt();
            }
        } else {
            for ((o, &v), &d) in oc.iter_mut().zip(xc).zip(&acc) {
                *o = v / d.sqrt();
            }
        }
    }
}

/// Scalar reference twin of the GDN/iGDN forward pass: the per-position
/// loop the tiled kernel replaced, over `n` samples of `c` channel planes of
/// `spatial` values, with raw parameters (`c` β, `c × c` γ) reparameterised
/// exactly as the layer does. The differential harness demands bitwise
/// equality between this and [`Gdn`]'s `infer_into` on every input.
pub fn gdn_reference(
    x: &[f32],
    (n, c, spatial): (usize, usize, usize),
    beta_raw: &[f32],
    gamma_raw: &[f32],
    inverse: bool,
) -> Vec<f32> {
    let mut beta = vec![0.0f32; c];
    let mut gamma = vec![0.0f32; c * c];
    effective_coefficients(beta_raw, gamma_raw, &mut beta, &mut gamma);
    let mut out = vec![0.0f32; n * c * spatial];
    let mut sq = vec![0.0f32; c];
    for ni in 0..n {
        let base = ni * c * spatial;
        for s in 0..spatial {
            // Gather x_j² at this position.
            for (j, sqj) in sq.iter_mut().enumerate() {
                let v = x[base + j * spatial + s];
                *sqj = v * v;
            }
            for ch in 0..c {
                let mut denom = beta[ch];
                let grow = &gamma[ch * c..(ch + 1) * c];
                for j in 0..c {
                    denom += grow[j] * sq[j];
                }
                let xc = x[base + ch * spatial + s];
                out[base + ch * spatial + s] = if inverse {
                    xc * denom.sqrt()
                } else {
                    xc / denom.sqrt()
                };
            }
        }
    }
    out
}

impl Gdn {
    /// New GDN (`inverse = false`) or iGDN (`inverse = true`) over `channels`.
    pub fn new(spatial_rank: usize, channels: usize, inverse: bool) -> Self {
        // β starts at 1, γ at 0.1 on the diagonal and a small positive value
        // elsewhere so off-diagonal interactions can still receive gradient.
        let beta_raw = Tensor::ones(&[channels]);
        let mut gamma = vec![0.05f32; channels * channels];
        for c in 0..channels {
            gamma[c * channels + c] = 0.1f32.sqrt();
        }
        Gdn {
            beta_raw: Param::new(beta_raw),
            gamma_raw: Param::new(Tensor::from_vec(&[channels, channels], gamma).expect("shape")),
            channels,
            spatial_rank,
            inverse,
            cached_input: None,
        }
    }

    /// Shape checks shared by both forward entry points.
    fn validate(&self, shape: &[usize]) -> Result<Act5, NnError> {
        let layer: &'static str = if self.inverse { "iGDN" } else { "GDN" };
        let a = Act5::try_from_shape(shape, self.spatial_rank, layer)?;
        if a.c != self.channels {
            return Err(NnError {
                layer,
                problem: "channel count mismatch",
                expected: self.channels,
                got: a.c,
            });
        }
        Ok(a)
    }

    /// Normalisation core shared by `try_forward` and `infer_into`: the
    /// effective coefficients and the squares tile live in `scratch.coeff`
    /// (partitioned `[β c | γ c² | x² c·T]`), so the hot loop is
    /// allocation-free, and each sample runs in position tiles (module doc).
    fn run(&self, x: &[f32], a: Act5, out: &mut [f32], scratch: &mut NnScratch) {
        let c = a.c;
        scratch.coeff.clear();
        scratch.coeff.resize(c + c * c + c * TILE, 0.0);
        let (beta, rest) = scratch.coeff.split_at_mut(c);
        let (gamma, sq) = rest.split_at_mut(c * c);
        effective_coefficients(
            self.beta_raw.value.as_slice(),
            self.gamma_raw.value.as_slice(),
            beta,
            gamma,
        );
        let spatial = a.spatial_len();
        let sample = c * spatial;
        if sample == 0 {
            return;
        }
        for (xs, os) in x.chunks_exact(sample).zip(out.chunks_exact_mut(sample)) {
            let mut s0 = 0usize;
            while s0 < spatial {
                let t = (spatial - s0).min(TILE);
                let at = (s0, t);
                match t.next_power_of_two() {
                    64 => tile::<64>(xs, at, spatial, beta, gamma, sq, self.inverse, os),
                    32 => tile::<32>(xs, at, spatial, beta, gamma, sq, self.inverse, os),
                    16 => tile::<16>(xs, at, spatial, beta, gamma, sq, self.inverse, os),
                    _ => tile::<8>(xs, at, spatial, beta, gamma, sq, self.inverse, os),
                }
                s0 += t;
            }
        }
    }
}

impl Layer for Gdn {
    fn name(&self) -> &'static str {
        if self.inverse {
            "iGDN"
        } else {
            "GDN"
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn try_forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let out = infer_tensor(self, input)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        scratch: &mut NnScratch,
    ) -> Result<Shape, NnError> {
        let a = self.validate(shape.dims())?;
        NnError::check_len(if self.inverse { "iGDN" } else { "GDN" }, input, shape)?;
        out.resize(input.len(), 0.0);
        self.run(input, a, out, scratch);
        Ok(shape)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let a = Act5::from_shape(input.shape(), self.spatial_rank);
        let x = input.as_slice();
        let go = grad_output.as_slice();
        let spatial = a.spatial_len();

        // Value and gradient are disjoint fields: read one, accumulate into
        // the other, with no copy of the raw parameters.
        let beta_raw = self.beta_raw.value.as_slice();
        let gamma_raw = self.gamma_raw.value.as_slice();
        let gbeta_raw = self.beta_raw.grad.as_mut_slice();
        let ggamma_raw = self.gamma_raw.grad.as_mut_slice();
        let mut beta = vec![0.0f32; a.c];
        let mut gamma = vec![0.0f32; a.c * a.c];
        effective_coefficients(beta_raw, gamma_raw, &mut beta, &mut gamma);
        let mut gx = vec![0.0f32; x.len()];
        // One position's channel values and squares, refilled per position.
        let mut xs = vec![0.0f32; a.c];
        let mut sq = vec![0.0f32; a.c];

        for n in 0..a.n {
            let base = n * a.c * spatial;
            for s in 0..spatial {
                for j in 0..a.c {
                    let v = x[base + j * spatial + s];
                    xs[j] = v;
                    sq[j] = v * v;
                }
                for c in 0..a.c {
                    let g = go[base + c * spatial + s];
                    if g == 0.0 {
                        continue;
                    }
                    let grow = &gamma[c * a.c..(c + 1) * a.c];
                    let mut denom = beta[c];
                    for j in 0..a.c {
                        denom += grow[j] * sq[j];
                    }
                    let xc = xs[c];
                    if self.inverse {
                        let root = denom.sqrt();
                        let inv_root = 1.0 / root;
                        // dy/dx_k = δ_ck·√denom + x_c·γ_ck·x_k/√denom
                        gx[base + c * spatial + s] += g * root;
                        for k in 0..a.c {
                            gx[base + k * spatial + s] += g * xc * grow[k] * xs[k] * inv_root;
                        }
                        // dy/dβ_c = x_c / (2√denom); dy/dγ_cj = x_c·x_j² / (2√denom)
                        let dbeta = g * xc * 0.5 * inv_root;
                        gbeta_raw[c] += dbeta * 2.0 * beta_raw[c];
                        for j in 0..a.c {
                            let dgamma = g * xc * 0.5 * inv_root * sq[j];
                            ggamma_raw[c * a.c + j] += dgamma * 2.0 * gamma_raw[c * a.c + j];
                        }
                    } else {
                        let inv_root = 1.0 / denom.sqrt();
                        let inv_3 = inv_root / denom;
                        // dy/dx_k = δ_ck/√denom − x_c·γ_ck·x_k/denom^{3/2}
                        gx[base + c * spatial + s] += g * inv_root;
                        for k in 0..a.c {
                            gx[base + k * spatial + s] -= g * xc * grow[k] * xs[k] * inv_3;
                        }
                        // dy/dβ_c = −x_c/(2·denom^{3/2}); dy/dγ_cj adds x_j².
                        let dbeta = -g * xc * 0.5 * inv_3;
                        gbeta_raw[c] += dbeta * 2.0 * beta_raw[c];
                        for j in 0..a.c {
                            let dgamma = -g * xc * 0.5 * inv_3 * sq[j];
                            ggamma_raw[c * a.c + j] += dgamma * 2.0 * gamma_raw[c * a.c + j];
                        }
                    }
                }
            }
        }
        Tensor::from_vec(input.shape(), gx).expect("consistent shape")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.beta_raw, &mut self.gamma_raw]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.beta_raw, &self.gamma_raw]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::grad_check_input;
    use aesz_tensor::init::{normal, rng};

    #[test]
    fn forward_matches_closed_form_for_single_channel() {
        // With one channel, β = 1 + ε and γ = 0.1: y = x / sqrt(1 + 0.1 x²).
        let mut gdn = Gdn::new(2, 1, false);
        let x = Tensor::from_vec(&[1, 1, 1, 3], vec![0.0, 1.0, -2.0]).unwrap();
        let y = gdn.forward(&x);
        let expect = |v: f32| v / (1.0 + BETA_EPS + 0.1 * v * v).sqrt();
        for (a, &b) in y.as_slice().iter().zip(x.as_slice()) {
            assert!((a - expect(b)).abs() < 1e-4, "{a} vs {}", expect(b));
        }
    }

    #[test]
    fn igdn_approximately_inverts_gdn_for_small_inputs() {
        let mut gdn = Gdn::new(2, 4, false);
        let mut igdn = Gdn::new(2, 4, true);
        let mut r = rng(1);
        let x = normal(&[2, 4, 3, 3], 0.0, 0.1, &mut r);
        let y = gdn.forward(&x);
        let z = igdn.forward(&y);
        // With identical fresh parameters the composition is close to the identity
        // for small activations (denominators near β = 1).
        for (a, b) in x.as_slice().iter().zip(z.as_slice()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn gradient_check_gdn() {
        let mut gdn = Gdn::new(2, 3, false);
        let mut r = rng(2);
        let x = normal(&[1, 3, 4, 4], 0.0, 1.0, &mut r);
        let err = grad_check_input(&mut gdn, &x, 1e-3);
        assert!(err < 2e-2, "relative gradient error {err}");
    }

    #[test]
    fn gradient_check_igdn_3d() {
        let mut igdn = Gdn::new(3, 2, true);
        let mut r = rng(3);
        let x = normal(&[1, 2, 3, 3, 3], 0.0, 1.0, &mut r);
        let err = grad_check_input(&mut igdn, &x, 1e-3);
        assert!(err < 2e-2, "relative gradient error {err}");
    }

    #[test]
    fn infer_into_matches_forward_bitwise() {
        for inverse in [false, true] {
            let mut gdn = Gdn::new(2, 3, inverse);
            let mut r = rng(4);
            let x = normal(&[2, 3, 4, 4], 0.0, 1.0, &mut r);
            let y = gdn.forward(&x);
            let mut out = Vec::new();
            let mut scratch = NnScratch::new();
            let shape = gdn
                .infer_into(x.as_slice(), Shape::new(x.shape()), &mut out, &mut scratch)
                .expect("valid shape");
            assert_eq!(shape.dims(), y.shape());
            let fwd: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
            let inf: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fwd, inf, "inverse={inverse}");
        }
    }

    #[test]
    fn parameters_stay_positive_under_the_reparameterisation() {
        let gdn = Gdn::new(2, 8, false);
        let (mut beta, mut gamma) = ([0.0f32; 8], [0.0f32; 64]);
        effective_coefficients(
            gdn.beta_raw.value.as_slice(),
            gdn.gamma_raw.value.as_slice(),
            &mut beta,
            &mut gamma,
        );
        assert!(beta.iter().all(|&b| b > 0.0));
        assert!(gamma.iter().all(|&g| g >= 0.0));
        assert_eq!(gdn.params().len(), 2);
        assert_eq!(gdn.num_params(), 8 + 64);
    }
}
