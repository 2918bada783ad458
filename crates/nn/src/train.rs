//! Mini-batch training of the autoencoder zoo.
//!
//! One trainer owns one [`ConvAutoencoder`] and an Adam optimizer and trains
//! it on a set of flat, already-normalised data blocks (the offline-training
//! stage of Fig. 2 in the paper). The objective is selected by
//! [`AeVariant`]: every variant uses the same trunk, so this module is where
//! the reconstruction losses and latent-space regularizers get combined and
//! their gradients routed through the encoder/decoder.

use crate::loss;
use crate::models::conv_ae::{AeConfig, ConvAutoencoder};
use crate::models::zoo::AeVariant;
use crate::optim::Adam;
use aesz_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyper-parameters of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training blocks.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Which member of the autoencoder zoo to train.
    pub variant: AeVariant,
    /// RNG seed (shuffling, prior samples, random projections, reparameterisation).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 16,
            learning_rate: 1e-3,
            variant: AeVariant::aesz_default(),
            seed: 1234,
        }
    }
}

/// Trains one autoencoder on blockwise data.
pub struct Trainer {
    model: ConvAutoencoder,
    optimizer: Adam,
    config: TrainConfig,
    rng: StdRng,
}

/// Per-epoch training record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean total loss over the epoch.
    pub loss: f32,
    /// Mean reconstruction component.
    pub reconstruction: f32,
    /// Mean regularizer component.
    pub regularizer: f32,
}

impl Trainer {
    /// Build a trainer for a fresh model. The model's `variational` flag is
    /// forced to match the variant's requirement.
    pub fn new(mut ae_config: AeConfig, config: TrainConfig) -> Self {
        ae_config.variational = config.variant.is_variational();
        let model = ConvAutoencoder::new(ae_config);
        let optimizer = Adam::new(config.learning_rate);
        let rng = init::rng(config.seed);
        Trainer {
            model,
            optimizer,
            config,
            rng,
        }
    }

    /// Wrap an already-built model (used to fine-tune or continue training).
    pub fn with_model(model: ConvAutoencoder, config: TrainConfig) -> Self {
        let optimizer = Adam::new(config.learning_rate);
        let rng = init::rng(config.seed);
        Trainer {
            model,
            optimizer,
            config,
            rng,
        }
    }

    /// The model being trained.
    pub fn model(&self) -> &ConvAutoencoder {
        &self.model
    }

    /// Consume the trainer, returning the trained model.
    pub fn into_model(self) -> ConvAutoencoder {
        self.model
    }

    /// Train on the given flat blocks (each of length `block_len()`); returns
    /// one [`EpochStats`] per epoch.
    pub fn train(&mut self, blocks: &[Vec<f32>]) -> Vec<EpochStats> {
        assert!(!blocks.is_empty(), "training set must not be empty");
        let block_len = self.model.config().block_len();
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.len(), block_len, "block {i} has the wrong length");
        }
        let mut order: Vec<usize> = (0..blocks.len()).collect();
        let mut stats = Vec::with_capacity(self.config.epochs);
        for _ in 0..self.config.epochs {
            order.shuffle(&mut self.rng);
            let mut sum = EpochStats {
                loss: 0.0,
                reconstruction: 0.0,
                regularizer: 0.0,
            };
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let batch: Vec<f32> = chunk
                    .iter()
                    .flat_map(|&i| blocks[i].iter().copied())
                    .collect();
                let s = self.train_batch(batch, chunk.len());
                sum.loss += s.loss;
                sum.reconstruction += s.reconstruction;
                sum.regularizer += s.regularizer;
                batches += 1;
            }
            let b = batches.max(1) as f32;
            stats.push(EpochStats {
                loss: sum.loss / b,
                reconstruction: sum.reconstruction / b,
                regularizer: sum.regularizer / b,
            });
        }
        stats
    }

    /// One optimisation step on a flat batch of `n` blocks.
    fn train_batch(&mut self, batch: Vec<f32>, n: usize) -> EpochStats {
        let shape = self.model.input_shape(n);
        let x = Tensor::from_vec(&shape, batch).expect("batch shape");
        let latent_dim = self.model.config().latent_dim;
        let variant = self.config.variant;

        // Forward: encode, (sample), decode.
        let enc_out = self.model.encode(&x);
        let (z, mu, logvar, eps) = if variant.is_variational() {
            let (mu, logvar) = split_mu_logvar(&enc_out, latent_dim);
            let eps = init::normal(&[n, latent_dim], 0.0, 1.0, &mut self.rng);
            let z = reparameterise(&mu, &logvar, &eps);
            (z, Some(mu), Some(logvar), Some(eps))
        } else {
            (enc_out.clone(), None, None, None)
        };
        let recon = self.model.decode(&z);

        // Reconstruction loss (per variant).
        let (rec_loss, grad_recon) = match variant {
            AeVariant::LogCoshVae => loss::log_cosh(&recon, &x),
            _ => loss::mse(&recon, &x),
        };

        // Latent regularizer: gradient contributions on z and, for VAEs, on μ/log σ².
        let mut reg_loss = 0.0f32;
        let mut grad_z_extra = Tensor::zeros(z.shape());
        let mut grad_mu_extra = Tensor::zeros(&[n, latent_dim]);
        let mut grad_logvar_extra = Tensor::zeros(&[n, latent_dim]);
        match variant {
            AeVariant::Ae => {}
            AeVariant::Vae => {
                let (kl, gmu, glv) =
                    loss::kl_divergence(mu.as_ref().expect("vae"), logvar.as_ref().expect("vae"));
                reg_loss += kl;
                grad_mu_extra = gmu;
                grad_logvar_extra = glv;
            }
            AeVariant::BetaVae { beta } => {
                let (kl, gmu, glv) =
                    loss::kl_divergence(mu.as_ref().expect("vae"), logvar.as_ref().expect("vae"));
                reg_loss += beta * kl;
                grad_mu_extra = gmu.scale(beta);
                grad_logvar_extra = glv.scale(beta);
            }
            AeVariant::DipVae {
                lambda_od,
                lambda_d,
            } => {
                let mu_t = mu.as_ref().expect("vae");
                let (kl, gmu, glv) = loss::kl_divergence(mu_t, logvar.as_ref().expect("vae"));
                let (dip, gdip) = loss::kl::dip_covariance_penalty(mu_t, lambda_od, lambda_d);
                reg_loss += kl + dip;
                grad_mu_extra = gmu.add(&gdip).expect("same shape");
                grad_logvar_extra = glv;
            }
            AeVariant::InfoVae { lambda_mmd } => {
                let mu_t = mu.as_ref().expect("vae");
                let (kl, gmu, glv) = loss::kl_divergence(mu_t, logvar.as_ref().expect("vae"));
                let prior = init::normal(&[n, latent_dim], 0.0, 1.0, &mut self.rng);
                let (mmd, gz) = loss::mmd_rbf(&z, &prior, 1.0);
                // Info-VAE keeps a small KL plus a strong MMD term.
                reg_loss += 0.1 * kl + lambda_mmd * mmd;
                grad_mu_extra = gmu.scale(0.1);
                grad_logvar_extra = glv.scale(0.1);
                grad_z_extra = gz.scale(lambda_mmd);
            }
            AeVariant::LogCoshVae => {
                let (kl, gmu, glv) =
                    loss::kl_divergence(mu.as_ref().expect("vae"), logvar.as_ref().expect("vae"));
                reg_loss += kl;
                grad_mu_extra = gmu;
                grad_logvar_extra = glv;
            }
            AeVariant::Wae { lambda_mmd } => {
                let prior = init::normal(&[n, latent_dim], 0.0, 1.0, &mut self.rng);
                let (mmd, gz) = loss::mmd_rbf(&z, &prior, 1.0);
                reg_loss += lambda_mmd * mmd;
                grad_z_extra = gz.scale(lambda_mmd);
            }
            AeVariant::Swae {
                lambda,
                projections,
            } => {
                let prior = init::normal(&[n, latent_dim], 0.0, 1.0, &mut self.rng);
                let (swd, gz) = loss::sliced_wasserstein(&z, &prior, projections, &mut self.rng);
                reg_loss += lambda * swd;
                grad_z_extra = gz.scale(lambda);
            }
        }

        // Backward: decoder, then combine latent gradients, then encoder.
        let grad_z = self
            .model
            .decoder_backward(&grad_recon)
            .add(&grad_z_extra)
            .expect("same latent shape");
        let grad_encoder_out = if variant.is_variational() {
            let logvar_t = logvar.as_ref().expect("vae");
            let eps_t = eps.as_ref().expect("vae");
            // z = μ + ε·exp(½ℓ):  ∂z/∂μ = 1, ∂z/∂ℓ = ½·ε·exp(½ℓ).
            let grad_mu = grad_z.add(&grad_mu_extra).expect("shape");
            let dz_dlogvar = logvar_t
                .zip(eps_t, |lv, e| 0.5 * e * (0.5 * lv).exp())
                .expect("shape");
            let grad_logvar = grad_z
                .mul(&dz_dlogvar)
                .expect("shape")
                .add(&grad_logvar_extra)
                .expect("shape");
            concat_mu_logvar(&grad_mu, &grad_logvar)
        } else {
            grad_z
        };
        let _ = self.model.encoder_backward(&grad_encoder_out);
        self.optimizer.step(&mut self.model.params_mut());

        EpochStats {
            loss: rec_loss + reg_loss,
            reconstruction: rec_loss,
            regularizer: reg_loss,
        }
    }

    /// Deterministic prediction PSNR of the current model on held-out blocks
    /// (in normalised `[-1, 1]` space) — the metric reported in Table I.
    pub fn prediction_psnr(&mut self, blocks: &[Vec<f32>]) -> f64 {
        assert!(!blocks.is_empty());
        let n = blocks.len();
        let flat: Vec<f32> = blocks.iter().flat_map(|b| b.iter().copied()).collect();
        let shape = self.model.input_shape(n);
        let x = Tensor::from_vec(&shape, flat.clone()).expect("shape");
        let recon = self.model.reconstruct(&x);
        let mut mse = 0.0f64;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (&a, &b) in flat.iter().zip(recon.as_slice().iter()) {
            mse += (a as f64 - b as f64).powi(2);
            lo = lo.min(a as f64);
            hi = hi.max(a as f64);
        }
        mse /= flat.len() as f64;
        let range = (hi - lo).max(1e-12);
        if mse == 0.0 {
            f64::INFINITY
        } else {
            20.0 * range.log10() - 10.0 * mse.log10()
        }
    }
}

/// Split an encoder output `(N, 2d)` into μ and log σ², each `(N, d)`.
fn split_mu_logvar(enc_out: &Tensor, latent_dim: usize) -> (Tensor, Tensor) {
    let n = enc_out.shape()[0];
    let src = enc_out.as_slice();
    let mut mu = Vec::with_capacity(n * latent_dim);
    let mut lv = Vec::with_capacity(n * latent_dim);
    for i in 0..n {
        mu.extend_from_slice(&src[i * 2 * latent_dim..i * 2 * latent_dim + latent_dim]);
        lv.extend_from_slice(&src[i * 2 * latent_dim + latent_dim..(i + 1) * 2 * latent_dim]);
    }
    (
        Tensor::from_vec(&[n, latent_dim], mu).expect("shape"),
        Tensor::from_vec(&[n, latent_dim], lv).expect("shape"),
    )
}

/// Interleave μ and log σ² gradients back into the encoder-output layout.
fn concat_mu_logvar(gmu: &Tensor, glogvar: &Tensor) -> Tensor {
    let n = gmu.shape()[0];
    let d = gmu.shape()[1];
    let mut out = Vec::with_capacity(n * 2 * d);
    for i in 0..n {
        out.extend_from_slice(&gmu.as_slice()[i * d..(i + 1) * d]);
        out.extend_from_slice(&glogvar.as_slice()[i * d..(i + 1) * d]);
    }
    Tensor::from_vec(&[n, 2 * d], out).expect("shape")
}

/// Reparameterisation trick: `z = μ + ε · exp(½ log σ²)`.
fn reparameterise(mu: &Tensor, logvar: &Tensor, eps: &Tensor) -> Tensor {
    let z: Vec<f32> = mu
        .as_slice()
        .iter()
        .zip(logvar.as_slice().iter())
        .zip(eps.as_slice().iter())
        .map(|((&m, &lv), &e)| m + e * (0.5 * lv).exp())
        .collect();
    Tensor::from_vec(mu.shape(), z).expect("shape")
}

/// Generate a smooth synthetic training block (used by tests and examples
/// that need quick, dataset-independent training data).
pub fn synthetic_block(block_len: usize, edge: usize, rank: usize, seed: u64) -> Vec<f32> {
    let mut rng = init::rng(seed);
    let fy: f32 = rng.gen_range(0.5..2.5);
    let fx: f32 = rng.gen_range(0.5..2.5);
    let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
    let mut out = Vec::with_capacity(block_len);
    for i in 0..block_len {
        let (a, b) = match rank {
            2 => (
                (i / edge) as f32 / edge as f32,
                (i % edge) as f32 / edge as f32,
            ),
            _ => (
                ((i / (edge * edge)) as f32 / edge as f32),
                ((i % (edge * edge)) / edge) as f32 / edge as f32,
            ),
        };
        out.push((std::f32::consts::TAU * (fy * a + fx * b) + phase).sin() * 0.8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> AeConfig {
        AeConfig {
            spatial_rank: 2,
            block_size: 8,
            latent_dim: 4,
            channels: vec![4, 8],
            variational: false,
            seed: 3,
        }
    }

    fn training_blocks(count: usize) -> Vec<Vec<f32>> {
        (0..count)
            .map(|i| synthetic_block(64, 8, 2, i as u64))
            .collect()
    }

    #[test]
    fn swae_training_reduces_loss() {
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 8,
            learning_rate: 2e-3,
            variant: AeVariant::aesz_default(),
            seed: 5,
        };
        let mut trainer = Trainer::new(tiny_config(), cfg);
        let stats = trainer.train(&training_blocks(32));
        assert_eq!(stats.len(), 8);
        let first = stats.first().unwrap().loss;
        let last = stats.last().unwrap().loss;
        assert!(
            last < first * 0.8,
            "training should reduce the loss: first {first}, last {last}"
        );
        assert!(last.is_finite());
    }

    #[test]
    fn vanilla_ae_training_reduces_reconstruction_error() {
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 8,
            learning_rate: 2e-3,
            variant: AeVariant::Ae,
            seed: 6,
        };
        let mut trainer = Trainer::new(tiny_config(), cfg);
        let stats = trainer.train(&training_blocks(24));
        assert!(stats.last().unwrap().reconstruction < stats.first().unwrap().reconstruction);
        // No regularizer for the vanilla AE.
        assert!(stats.iter().all(|s| s.regularizer == 0.0));
    }

    #[test]
    fn variational_variants_train_without_nan() {
        for variant in [
            AeVariant::Vae,
            AeVariant::BetaVae { beta: 2.0 },
            AeVariant::InfoVae { lambda_mmd: 2.0 },
        ] {
            let cfg = TrainConfig {
                epochs: 2,
                batch_size: 8,
                learning_rate: 1e-3,
                variant,
                seed: 7,
            };
            let mut trainer = Trainer::new(tiny_config(), cfg);
            let stats = trainer.train(&training_blocks(16));
            assert!(
                stats.iter().all(|s| s.loss.is_finite()),
                "{} produced a non-finite loss",
                variant.name()
            );
        }
    }

    #[test]
    fn prediction_psnr_improves_with_training() {
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 8,
            learning_rate: 2e-3,
            variant: AeVariant::aesz_default(),
            seed: 8,
        };
        let mut trainer = Trainer::new(tiny_config(), cfg);
        let train: Vec<Vec<f32>> = training_blocks(32);
        let test: Vec<Vec<f32>> = (100..116).map(|i| synthetic_block(64, 8, 2, i)).collect();
        let before = trainer.prediction_psnr(&test);
        trainer.train(&train);
        let after = trainer.prediction_psnr(&test);
        assert!(
            after > before + 1.0,
            "PSNR should improve with training: {before:.2} → {after:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn rejects_malformed_blocks() {
        let mut trainer = Trainer::new(tiny_config(), TrainConfig::default());
        trainer.train(&[vec![0.0; 63]]);
    }
}
