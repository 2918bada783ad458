//! Fig. 6 — prediction PSNR of the SWAE as a function of the bit rate spent on
//! (lossily compressed) latent vectors, on CESM-FREQSH and NYX-baryon-density.

use aesz_core::training::{train_swae_for_field, training_blocks_from_field, TrainingOptions};
use aesz_core::LatentCodec;
use aesz_datagen::Application;
use aesz_tensor::Dims;

fn main() {
    println!("Fig. 6 counterpart — SWAE prediction PSNR vs latent bit rate");
    println!("paper reference: PSNR flat until latent bit-rate drops below ~0.05-0.1 bits/value");
    for app in [Application::CesmFreqsh, Application::NyxBaryonDensity] {
        let dims = if app.rank() == 2 {
            Dims::d2(128, 128)
        } else {
            Dims::d3(48, 48, 48)
        };
        let field = app.generate(dims, 0);
        let rank = app.rank();
        let opts = TrainingOptions {
            epochs: 4,
            max_blocks: 192,
            ..TrainingOptions::default_for_rank(rank)
        };
        let mut model = train_swae_for_field(std::slice::from_ref(&field), &opts);
        let blocks = training_blocks_from_field(&app.generate(dims, 50), opts.block_size, 128, 5);
        let flat: Vec<f32> = blocks.iter().flatten().copied().collect();
        let latents = model.encode_blocks(&flat, blocks.len());
        let block_len = opts.block_size.pow(rank as u32);
        println!("-- {} --", app.name());
        println!(
            "{:>12} {:>12} {:>10}",
            "latent eb", "bits/value", "PSNR (dB)"
        );
        for leb in [1e-4f64, 1e-3, 5e-3, 2e-2, 1e-1] {
            let codec = LatentCodec::new(leb);
            let indices = codec.quantize(&latents);
            let bytes = codec
                .encode(&indices, opts.latent_dim)
                .expect("latent indices span less than 2^32")
                .len();
            let zd = codec.dequantize(&indices);
            let recon = model.decode_latents(&zd, blocks.len());
            // PSNR in the normalised block domain.
            let mut mse = 0.0f64;
            for (a, b) in flat.iter().zip(recon.iter()) {
                mse += (*a as f64 - *b as f64).powi(2);
            }
            mse /= flat.len() as f64;
            let psnr = 20.0 * 2.0f64.log10() - 10.0 * mse.log10();
            let bits_per_value = bytes as f64 * 8.0 / (blocks.len() * block_len) as f64;
            println!("{leb:>12.0e} {bits_per_value:>12.4} {psnr:>10.2}");
        }
    }
}
