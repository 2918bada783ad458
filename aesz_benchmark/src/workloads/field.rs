//! Whole-field workloads: one 8 MB field compressed and decompressed through
//! `Compressor::compress` / `decompress` — AE-SZ (`aesz-2d`), AE-B
//! (`aeb-3d`) and the NN-free control SZ2.1 (`sz2-3d`).

use aesz_repro::baselines::{AeB, Sz2};
use aesz_repro::core::training::train_swae_for_field;
use aesz_repro::datagen::Application;
use aesz_repro::nn::serialize::load_model;
use aesz_repro::{AeSz, AeSzConfig, Compressor, ErrorBound, Field};

use super::{check_bound, rotated, RoundTrip, Scale, TEST_SNAPSHOT, TRAIN_SNAPSHOT};
use crate::probes::{default_aesz, registry_with, ProbeSetup, Probes, AEB_BATCH, AESZ_BATCH};

/// The codec under test, typed where the probes need its model.
enum Codec {
    AeSz(AeSz),
    AeB(AeB),
    Sz2(Sz2),
}

impl Codec {
    fn get(&self) -> &dyn Compressor {
        match self {
            Codec::AeSz(c) => c,
            Codec::AeB(c) => c,
            Codec::Sz2(c) => c,
        }
    }

    fn get_mut(&mut self) -> &mut dyn Compressor {
        match self {
            Codec::AeSz(c) => c,
            Codec::AeB(c) => c,
            Codec::Sz2(c) => c,
        }
    }
}

pub struct FieldRoundTrip {
    name: &'static str,
    codec: Codec,
    field: Field,
    bound: ErrorBound,
}

impl FieldRoundTrip {
    fn new(name: &'static str, codec: Codec, field: Field) -> FieldRoundTrip {
        FieldRoundTrip {
            name,
            codec,
            field,
            bound: ErrorBound::rel(1e-3),
        }
    }

    /// AE-SZ with a SWAE trained at the default 2D options on a 256² CESM
    /// field, compressing an 8 MB CESM field.
    pub fn aesz_2d(seed: u64, scale: &Scale) -> FieldRoundTrip {
        let train = Application::CesmCldhgh.generate(scale.train_2d, TRAIN_SNAPSHOT);
        let train = rotated(&train, seed, 1);
        let model = train_swae_for_field(std::slice::from_ref(&train), &scale.training);
        let codec = AeSz::new(model, AeSzConfig::default_2d());
        let field = Application::CesmCldhgh.generate(scale.cesm, TEST_SNAPSHOT);
        FieldRoundTrip::new("aesz-2d", Codec::AeSz(codec), rotated(&field, seed, 2))
    }

    /// AE-B trained on a 64³ Nyx field, compressing an 8 MB Nyx field.
    pub fn aeb_3d(seed: u64, scale: &Scale) -> FieldRoundTrip {
        let train = Application::NyxBaryonDensity.generate(scale.train_3d, TRAIN_SNAPSHOT);
        let train = rotated(&train, seed, 1);
        let mut codec = AeB::new(7);
        codec.train(std::slice::from_ref(&train), scale.aeb_epochs, 7);
        let field = Application::NyxBaryonDensity.generate(scale.nyx, TEST_SNAPSHOT);
        FieldRoundTrip::new("aeb-3d", Codec::AeB(codec), rotated(&field, seed, 2))
    }

    /// SZ2.1 on the same kind of Nyx field: no NN anywhere.
    pub fn sz2_3d(seed: u64, scale: &Scale) -> FieldRoundTrip {
        let field = Application::NyxBaryonDensity.generate(scale.nyx, TEST_SNAPSHOT);
        FieldRoundTrip::new("sz2-3d", Codec::Sz2(Sz2::new()), rotated(&field, seed, 2))
    }
}

impl RoundTrip for FieldRoundTrip {
    fn name(&self) -> &'static str {
        self.name
    }

    fn input(&self) -> &Field {
        &self.field
    }

    fn compress(&mut self) -> Result<Vec<u8>, String> {
        self.codec
            .get_mut()
            .compress(&self.field, self.bound)
            .map_err(|e| e.to_string())
    }

    fn decompress(&mut self, bytes: &[u8]) -> Result<Field, String> {
        self.codec
            .get_mut()
            .decompress(bytes)
            .map_err(|e| e.to_string())
    }

    fn check(&self, _bytes: &[u8], recon: &Field) -> Result<(), String> {
        if self.codec.get().is_error_bounded() {
            return check_bound(
                self.name,
                &self.field,
                recon,
                self.bound.resolve(&self.field),
            );
        }
        // Not error bounded (AE-B): finite and inside the data envelope
        // widened by half the value range.
        let (lo, hi) = self.field.min_max();
        let slack = 0.5 * (hi - lo);
        let inside = |v: &f32| v.is_finite() && *v >= lo - slack && *v <= hi + slack;
        if recon.dims() == self.field.dims() && recon.as_slice().iter().all(inside) {
            Ok(())
        } else {
            Err(format!(
                "{}: reconstruction leaves the data envelope",
                self.name
            ))
        }
    }

    fn probes(&self, output: &[u8], probe_elems: usize) -> Probes {
        let rank = self.field.dims().rank();
        let (nn_model, nn_batch, aesz) = match &self.codec {
            Codec::AeSz(c) => (c.model().clone(), AESZ_BATCH, c.clone()),
            Codec::AeB(c) => {
                let model = load_model(&c.to_model_bytes()).expect("AE-B's own model loads");
                (model, AEB_BATCH, default_aesz(rank))
            }
            Codec::Sz2(_) => {
                let aesz = default_aesz(rank);
                (aesz.model().clone(), AESZ_BATCH, aesz)
            }
        };
        let codec = self.codec.get();
        Probes::new(ProbeSetup {
            field: &self.field,
            output,
            codec: codec.codec_id(),
            registry: registry_with(&[codec]),
            nn_model,
            nn_batch,
            aesz,
            bound: self.bound,
            probe_elems,
        })
    }
}
