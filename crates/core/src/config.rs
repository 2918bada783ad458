//! AE-SZ compressor configuration.

/// Which predictors the compressor may choose from per block.
///
/// `Adaptive` is the AE-SZ default (Algorithm 1); the single-predictor
/// policies exist for the ablation of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorPolicy {
    /// Select between the autoencoder and (mean-)Lorenzo per block.
    Adaptive,
    /// Always use the autoencoder predictor.
    AeOnly,
    /// Always use the (mean-)Lorenzo predictor.
    LorenzoOnly,
}

/// Tunable parameters of the AE-SZ compressor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AeSzConfig {
    /// Block edge length; must match the block size the model was trained on.
    pub block_size: usize,
    /// Number of linear quantization bins (65,536 in the paper).
    pub quant_bins: usize,
    /// The latent vectors are quantized with an error bound of
    /// `latent_eb_fraction · e` where `e` is the data error bound (0.1 in the
    /// paper's "custo." codec).
    pub latent_eb_fraction: f64,
    /// Predictor selection policy (Fig. 11 ablation).
    pub policy: PredictorPolicy,
}

impl Default for AeSzConfig {
    fn default() -> Self {
        AeSzConfig {
            block_size: 32,
            quant_bins: 65_536,
            latent_eb_fraction: 0.1,
            policy: PredictorPolicy::Adaptive,
        }
    }
}

impl AeSzConfig {
    /// Default configuration for 2D fields (32×32 blocks).
    pub fn default_2d() -> Self {
        Self::default()
    }

    /// Default configuration for 3D fields (8×8×8 blocks).
    pub fn default_3d() -> Self {
        AeSzConfig {
            block_size: 8,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c2 = AeSzConfig::default_2d();
        assert_eq!(c2.block_size, 32);
        assert_eq!(c2.quant_bins, 65_536);
        assert!((c2.latent_eb_fraction - 0.1).abs() < 1e-12);
        assert_eq!(c2.policy, PredictorPolicy::Adaptive);
        assert_eq!(AeSzConfig::default_3d().block_size, 8);
    }
}
