//! Golden lock on multi-step training: two production geometries train for
//! several Adam steps on a few blocks, and the content-addressed id of the
//! weights they reach must equal a constant.
//!
//! `ae_stream_golden.rs` trains each registry model for a single step on
//! narrow geometries. These two cover what it does not: the `aesz-2d`
//! geometry (SWAE, channels [8, 16], 32² blocks, latent 16) and AE-B
//! ([8, 8], 16³ blocks, latent 64), each over more than one step, so Adam's
//! moment buffers and every layer's backward carry state from one step to
//! the next. The constants were captured from the direct-loop convolution
//! backward; a rewrite of any training kernel (convolution, GDN, dense
//! backward, the optimizer, the trainer's batching) that moves a single
//! weight bit changes an id here.

use aesz_repro::baselines::AeB;
use aesz_repro::core::training::{train_swae_for_field, TrainingOptions};
use aesz_repro::datagen::Application;
use aesz_repro::nn::serialize::model_id;
use aesz_repro::Dims;

#[test]
fn aesz_2d_geometry_trains_to_the_golden_model_id() {
    // Four 32² CESM blocks in batches of two for two epochs: four Adam steps.
    let field = Application::CesmCldhgh.generate(Dims::d2(64, 64), 0);
    let opts = TrainingOptions {
        epochs: 2,
        batch_size: 2,
        max_blocks: 4,
        ..TrainingOptions::default_for_rank(2)
    };
    let model = train_swae_for_field(std::slice::from_ref(&field), &opts);
    assert_eq!(model.config().channels, [8, 16]);
    assert_eq!(
        model_id(&model).to_string(),
        "78fdcf39c981e0abcb8bc41bcd27c74a"
    );
}

#[test]
fn aeb_geometry_trains_to_the_golden_model_id() {
    // Two 16³ Nyx blocks, one batch per epoch, two epochs: two Adam steps.
    let field = Application::NyxBaryonDensity.generate(Dims::d3(32, 16, 16), 0);
    let mut codec = AeB::new(13);
    codec.train(std::slice::from_ref(&field), 2, 7);
    assert_eq!(
        codec.model_id().expect("trained").to_string(),
        "28ad781092210ef8ed05740cf84618fe"
    );
}
