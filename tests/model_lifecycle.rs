//! Cross-process model lifecycle: compress with a trained model in one
//! registry, decode in a **fresh** `Registry::with_defaults()` that never
//! saw the trainer — given only the archive bytes (embedded model), only a
//! sidecar model file, or nothing (the dedicated missing-model failure).
//!
//! "Fresh registry" is the in-process stand-in for a separate process: it
//! holds only what a new process would (default untrained codecs), so
//! everything the decode needs must travel through bytes on the wire or on
//! disk. The CI `archive-smoke` job runs the same cycle across real
//! processes through the `aesz` CLI.

use aesz_repro::archive::{
    compress_field_embedding, compress_field_with, decompress, decompress_chunk, ArchiveOptions,
    ArchiveReader,
};
use aesz_repro::baselines::{AeA, AeB};
use aesz_repro::core::training::{train_swae_for_field, TrainingOptions};
use aesz_repro::core::AeSz;
use aesz_repro::metrics::archive::ArchiveReadError;
use aesz_repro::model_store::ModelStore;
use aesz_repro::{
    decompress_reader, CodecId, Compressor, DecompressError, Dims, ErrorBound, Field,
    PredictorPolicy, Registry,
};

mod common;

/// A trained 2D AE-SZ forced to AE-predict every block, so its streams are
/// guaranteed to carry latent payloads (and therefore to need the model).
fn trained_aesz(field: &Field) -> AeSz {
    let opts = TrainingOptions {
        block_size: 16,
        latent_dim: 8,
        channels: vec![4, 8],
        epochs: 2,
        max_blocks: 48,
        seed: 31,
        ..TrainingOptions::default_for_rank(2)
    };
    let mut aesz = AeSz::from_model(train_swae_for_field(std::slice::from_ref(field), &opts));
    aesz.set_policy(PredictorPolicy::AeOnly);
    aesz
}

fn trainer_registry(field: &Field) -> (Registry, AeSz) {
    let aesz = trained_aesz(field);
    let mut registry = Registry::with_defaults();
    registry.register(Box::new(aesz.clone()));
    (registry, aesz)
}

const OPTS: ArchiveOptions = ArchiveOptions::new().chunk(16).window(3);

#[test]
fn embedded_model_archive_decodes_in_a_fresh_registry_bit_identically() {
    let field = common::field_2d();
    let (registry, _) = trainer_registry(&field);
    let bound = ErrorBound::rel(1e-2);

    let (bytes, stats) =
        compress_field_embedding(&registry, &field, bound, &OPTS, |_| CodecId::AeSz)
            .expect("embedding write");
    assert!(stats.model_bytes > 0, "the model must actually be embedded");

    // The trainer's own decode is the reference.
    let (reference, _) = decompress(&registry, &bytes, 3).expect("trainer decode");

    // A fresh registry that never saw the trainer decodes the archive from
    // its bytes alone, bit-identically.
    let fresh = Registry::with_defaults();
    let (recon, codecs) = decompress(&fresh, &bytes, 3).expect("fresh decode via embedded model");
    assert!(codecs.iter().all(|&c| c == CodecId::AeSz));
    assert_eq!(recon.as_slice(), reference.as_slice());

    // Random access through the fresh registry agrees chunk by chunk. The
    // models ride in the tail of the one written layout (v3, no index).
    let reader = ArchiveReader::open(&bytes).unwrap();
    assert_eq!(reader.models().len(), 1);
    assert_eq!((reader.header().version, reader.header().index_cap), (3, 0));
    for i in 0..reader.chunk_count() {
        let (spec, chunk) = decompress_chunk(&fresh, &bytes, i).expect("fresh random access");
        assert_eq!(
            chunk.as_slice(),
            reference.read_block_valid(&spec).as_slice(),
            "chunk {i} diverged"
        );
    }

    // The bound holds through the whole lifecycle.
    let abs = bound.resolve(&field);
    for (a, b) in field.as_slice().iter().zip(recon.as_slice()) {
        assert!(((a - b) as f64).abs() <= abs * 1.0001);
    }
}

#[test]
fn sidecar_model_file_decodes_in_a_fresh_registry() {
    let field = common::field_2d();
    let (registry, aesz) = trainer_registry(&field);
    let bound = ErrorBound::rel(1e-2);
    let model = Compressor::embedded_model(&aesz).expect("trained");

    // A *plain* (v1) archive: no embedded model, the model travels as a
    // sidecar file instead.
    let (bytes, stats) = compress_field_with(&registry, &field, bound, &OPTS, |_| CodecId::AeSz)
        .expect("plain write");
    assert_eq!(stats.model_bytes, 0);
    let (reference, _) = decompress(&registry, &bytes, 3).expect("trainer decode");

    let dir = std::env::temp_dir().join(format!("aesz_lifecycle_{}", model.id));
    std::fs::create_dir_all(&dir).unwrap();
    ModelStore::save_sidecar(&dir, &model).unwrap();

    // Fresh registry + sidecar directory → decodes bit-identically.
    let mut fresh = Registry::with_defaults();
    fresh.model_store_mut().add_sidecar_dir(&dir);
    let (recon, _) = decompress(&fresh, &bytes, 3).expect("fresh decode via sidecar");
    assert_eq!(recon.as_slice(), reference.as_slice());

    // The single-frame (non-archive) path resolves through the same store:
    // compress one framed stream, decode it with another fresh registry.
    // (A whole-field frame is its own reconstruction — chunked archives
    // compress each chunk independently — so the reference here is the
    // trainer's own decode of that frame.)
    let mut enc = aesz;
    let frame = enc.compress(&field, bound).expect("frame compress");
    let frame_reference = enc.decompress(&frame).expect("trainer frame decode");
    let mut fresh2 = Registry::with_defaults();
    fresh2.model_store_mut().add_sidecar_dir(&dir);
    let (recon2, id) = fresh2
        .decompress_any(&frame)
        .expect("frame decode via sidecar");
    assert_eq!(id, CodecId::AeSz);
    assert_eq!(recon2.as_slice(), frame_reference.as_slice());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unresolvable_models_fail_with_the_dedicated_missing_model_error() {
    let field = common::field_2d();
    let (registry, mut aesz) = trainer_registry(&field);
    let bound = ErrorBound::rel(1e-2);
    let expect_id = aesz.model_id();

    // Frame path: the fresh registry names the missing model — and the
    // failure is MissingModel, not a geometry mismatch (the acceptance
    // criterion), even though the default model's geometry also differs.
    let frame = aesz.compress(&field, bound).unwrap();
    let fresh = Registry::with_defaults();
    match fresh.decompress_any(&frame) {
        Err(DecompressError::MissingModel { codec, model_id }) => {
            assert_eq!(codec, CodecId::AeSz);
            assert_eq!(model_id, expect_id);
        }
        other => panic!("expected MissingModel, got {other:?}"),
    }

    // Archive path: a v1 archive with no embedded model and no sidecar
    // fails per-chunk with the same dedicated error.
    let (bytes, _) = compress_field_with(&registry, &field, bound, &OPTS, |_| CodecId::AeSz)
        .expect("plain write");
    let fresh = Registry::with_defaults();
    match decompress(&fresh, &bytes, 3) {
        Err(ArchiveReadError::Chunk { error, .. }) => {
            assert!(
                matches!(
                    error,
                    DecompressError::MissingModel { codec: CodecId::AeSz, model_id }
                        if model_id == expect_id
                ),
                "expected MissingModel, got {error:?}"
            );
        }
        other => panic!("expected a chunk MissingModel failure, got {other:?}"),
    }
}

#[test]
fn two_models_of_one_codec_in_one_archive_both_resolve() {
    use aesz_repro::archive::write_field_archive_embedding;
    use aesz_repro::metrics::CompressError;

    // Two differently trained AE-SZ instances (different seeds → different
    // content-addressed ids) encode alternating chunks of one archive, and
    // both models are embedded. Decoding must dispatch per chunk by the
    // model id stamped in each stream — per-codec resolution would feed half
    // the chunks the wrong model.
    let field = common::field_2d();
    let a = trained_aesz(&field);
    let b = {
        let opts = TrainingOptions {
            block_size: 16,
            latent_dim: 8,
            channels: vec![4, 8],
            epochs: 2,
            max_blocks: 48,
            seed: 77, // different weights, same geometry
            ..TrainingOptions::default_for_rank(2)
        };
        let mut b = AeSz::from_model(train_swae_for_field(std::slice::from_ref(&field), &opts));
        b.set_policy(PredictorPolicy::AeOnly);
        b
    };
    assert_ne!(a.model_id(), b.model_id());

    let bound = ErrorBound::rel(1e-2);
    let (bytes, stats) = write_field_archive_embedding(
        &field,
        bound,
        &OPTS,
        &mut |spec: &aesz_repro::tensor::BlockSpec| {
            let pick: &AeSz = if spec.index.is_multiple_of(2) { &a } else { &b };
            Ok::<_, CompressError>(Box::new(pick.clone()) as Box<dyn Compressor>)
        },
    )
    .expect("two-model embedding write");
    let reader = ArchiveReader::open(&bytes).unwrap();
    assert_eq!(reader.models().len(), 2, "both models embedded once each");
    assert!(stats.model_bytes > 0);

    // A fresh registry decodes the whole archive and every chunk by random
    // access, purely from the archive bytes.
    let fresh = Registry::with_defaults();
    let (recon, _) = decompress(&fresh, &bytes, 3).expect("fresh two-model decode");
    let abs = bound.resolve(&field);
    for (x, y) in field.as_slice().iter().zip(recon.as_slice()) {
        assert!(((x - y) as f64).abs() <= abs * 1.0001);
    }
    for i in 0..reader.chunk_count() {
        let (spec, chunk) = decompress_chunk(&fresh, &bytes, i).expect("random access");
        assert_eq!(
            chunk.as_slice(),
            recon.read_block_valid(&spec).as_slice(),
            "chunk {i} diverged from the full decode"
        );
    }
}

#[test]
fn ae_a_streams_travel_through_sidecars_too() {
    let field = common::field_2d();
    let mut ae = AeA::new(3);
    ae.train(std::slice::from_ref(&field), 1, 4);
    let model = Compressor::embedded_model(&ae).expect("trained");
    let stream = ae.compress(&field, ErrorBound::rel(1e-2)).unwrap();
    let reference = ae.decompress(&stream).unwrap();

    // Fresh registry: dedicated failure first…
    let mut fresh = Registry::with_defaults();
    assert!(matches!(
        fresh.decompress_any(&stream),
        Err(DecompressError::MissingModel {
            codec: CodecId::AeA,
            ..
        })
    ));
    // …then resolution once the model enters the store.
    fresh
        .model_store_mut()
        .insert_frame(&model.frame)
        .expect("valid frame");
    let (recon, id) = fresh.decompress_any(&stream).expect("resolved");
    assert_eq!(id, CodecId::AeA);
    assert_eq!(recon.as_slice(), reference.as_slice());
}

/// Assert that decode path `path` returned `want` for model source
/// `source`: the same field bit for bit, or the same error.
fn assert_same(
    source: &str,
    path: &str,
    got: Result<Field, DecompressError>,
    want: Result<&Field, &DecompressError>,
) {
    match (got, want) {
        (Ok(got), Ok(want)) => assert!(
            got.dims() == want.dims()
                && got
                    .as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{source} via {path}: field diverged"
        ),
        (Err(got), Err(want)) => assert_eq!(&got, want, "{source} via {path}"),
        (got, want) => panic!("{source} via {path}: got {got:?}, want {want:?}"),
    }
}

/// The error a decode path's [`ArchiveReadError`] wraps.
fn inner(error: ArchiveReadError) -> DecompressError {
    match error {
        ArchiveReadError::Archive(e) | ArchiveReadError::Chunk { error: e, .. } => e,
        ArchiveReadError::Io(e) => panic!("in-memory decode failed with I/O error {e}"),
    }
}

#[test]
fn every_decode_path_resolves_each_model_source_alike() {
    // An AE-B that trains nothing is still a usable trained instance.
    let aeb = AeB::from_model_bytes(&AeB::new(0).to_model_bytes()).expect("model bytes");
    let model = Compressor::embedded_model(&aeb).expect("a usable AE-B carries its model");
    let field = aesz_repro::datagen::Application::Rtm.generate(Dims::d3(32, 16, 16), 50);
    let mut trainer = Registry::with_defaults();
    trainer.register(Box::new(aeb));
    let opts = ArchiveOptions::new().chunk(16).window(2);
    let bound = ErrorBound::rel(1e-2);
    let (plain, stats) =
        compress_field_with(&trainer, &field, bound, &opts, |_| CodecId::AeB).expect("plain");
    let (embedded, _) = compress_field_embedding(&trainer, &field, bound, &opts, |_| CodecId::AeB)
        .expect("embedding write");
    let (reference, _) = decompress(&trainer, &plain, 2).expect("trainer decode");

    // The same archive with its AESM frame relabelled AE-SZ: the id hashes
    // only the payload, so the archive still opens.
    let mut relabelled = embedded.clone();
    let at = {
        let reader = ArchiveReader::open(&embedded).expect("embedded archive");
        let (_, frame) = reader.models()[0];
        frame.as_ptr() as usize - embedded.as_ptr() as usize
    };
    assert_eq!(relabelled[at + 5], CodecId::AeB as u8);
    relabelled[at + 5] = CodecId::AeSz as u8;
    ArchiveReader::open(&relabelled).expect("relabelled archive opens");

    let dir = std::env::temp_dir().join(format!("aesz_parity_{}", model.id));
    std::fs::create_dir_all(&dir).unwrap();
    ModelStore::save_sidecar(&dir, &model).unwrap();
    let mut sidecar = Registry::with_defaults();
    sidecar.model_store_mut().add_sidecar_dir(&dir);
    let fresh = Registry::with_defaults();

    let missing = DecompressError::MissingModel {
        codec: CodecId::AeB,
        model_id: model.id,
    };
    let cases = [
        ("registered", &trainer, &plain, Ok(&reference)),
        ("store only", &sidecar, &plain, Ok(&reference)),
        ("embedded only", &fresh, &embedded, Ok(&reference)),
        ("absent", &fresh, &plain, Err(&missing)),
        ("relabelled", &fresh, &relabelled, Err(&missing)),
    ];
    for (source, registry, bytes, want) in cases {
        let buffered = decompress(registry, bytes, 2).map(|(f, _)| f);
        let random = (0..stats.chunks).try_fold(Field::zeros(field.dims()), |mut f, i| {
            let (spec, chunk) = decompress_chunk(registry, bytes, i)?;
            f.write_block_valid(&spec, chunk.as_slice());
            Ok(f)
        });
        let pushed = decompress_reader(registry, &mut &bytes[..]);
        for (path, got) in [
            ("decompress", buffered),
            ("decompress_chunk", random),
            ("decompress_reader", pushed),
        ] {
            assert_same(source, path, got.map_err(inner), want);
        }
    }

    // A single AESC frame is a one-frame session: `decompress_any` and the
    // pushed decoder resolve it alike. Its relabelled model sits in the
    // store, the only place a frame can take a model from.
    let mut encoder = trainer.fork(CodecId::AeB).expect("trained aeb");
    let frame = encoder.compress(&field, bound).expect("frame");
    let frame_reference = encoder.decompress(&frame).expect("trainer frame decode");
    let mut relabelled_frame = model.frame.clone();
    relabelled_frame[5] = CodecId::AeSz as u8;
    let mut relabelled_store = Registry::with_defaults();
    relabelled_store
        .model_store_mut()
        .insert_frame(&relabelled_frame)
        .expect("the id hashes only the payload");
    let frame_cases = [
        ("registered", &trainer, Ok(&frame_reference)),
        ("store only", &sidecar, Ok(&frame_reference)),
        ("absent", &fresh, Err(&missing)),
        ("relabelled", &relabelled_store, Err(&missing)),
    ];
    for (source, registry, want) in frame_cases {
        let any = registry.decompress_any(&frame).map(|(f, _)| f);
        let pushed = decompress_reader(registry, &mut &frame[..]).map_err(inner);
        for (path, got) in [("decompress_any", any), ("decompress_reader", pushed)] {
            assert_same(source, path, got, want);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
