//! Table IV — compression ratios of the customized ("custo.") latent codec vs
//! an SZ2.1-style compressor applied to the same latent vectors, at error
//! bounds 1e-2 / 1e-3 / 1e-4.

use aesz_baselines::Sz2;
use aesz_core::training::{train_swae_for_field, training_blocks_from_field, TrainingOptions};
use aesz_core::LatentCodec;
use aesz_datagen::Application;
use aesz_metrics::{Compressor, ErrorBound};
use aesz_tensor::{Dims, Field};

fn latents_for(app: Application) -> (Vec<f32>, usize) {
    let dims = if app.rank() == 2 {
        Dims::d2(128, 128)
    } else {
        Dims::d3(48, 48, 48)
    };
    let field = app.generate(dims, 0);
    let rank = app.rank();
    let opts = TrainingOptions {
        epochs: 3,
        max_blocks: 128,
        ..TrainingOptions::default_for_rank(rank)
    };
    let mut model = train_swae_for_field(std::slice::from_ref(&field), &opts);
    let blocks = training_blocks_from_field(&field, opts.block_size, 256, 9);
    let flat: Vec<f32> = blocks.iter().flatten().copied().collect();
    let latents = model.encode_blocks(&flat, blocks.len());
    (latents, opts.latent_dim)
}

fn main() {
    println!("Table IV counterpart — latent-vector compression ratio: custo. vs SZ2.1-style");
    println!("paper reference (custo./SZ2.1): eb 1e-2: 6.9/5.9 (RTM), 7.1/6.2 (NYX-dmd), 6.6/5.7 (EXAFEL)");
    println!(
        "{:<26} {:>8} {:>10} {:>10}",
        "field", "eb", "custo.", "SZ2.1"
    );
    for app in [
        Application::Rtm,
        Application::NyxDarkMatterDensity,
        Application::Exafel,
    ] {
        let (latents, latent_dim) = latents_for(app);
        let n_vectors = latents.len() / latent_dim;
        let raw_bytes = latents.len() * 4;
        for eb in [1e-2f64, 1e-3, 1e-4] {
            // custo.: quantize with 0.1*e (normalised-domain bound = 2*eb) + Huffman/zlite.
            let codec = LatentCodec::new(0.1 * 2.0 * eb);
            let indices = codec.quantize(&latents);
            let custo_bytes = codec
                .encode(&indices, latent_dim)
                .expect("latent indices span less than 2^32")
                .len();
            // SZ2.1-style: treat the latent matrix as a 2D field.
            let latent_field =
                Field::from_vec(Dims::d2(n_vectors, latent_dim), latents.clone()).unwrap();
            let mut sz2 = Sz2::new();
            let sz2_bytes = sz2
                .compress(&latent_field, ErrorBound::rel(0.1 * eb))
                .expect("valid input")
                .len();
            println!(
                "{:<26} {:>8.0e} {:>10.2} {:>10.2}",
                app.name(),
                eb,
                raw_bytes as f64 / custo_bytes as f64,
                raw_bytes as f64 / sz2_bytes as f64
            );
        }
    }
}
