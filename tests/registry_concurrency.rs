//! Concurrency soak of [`SharedRegistry`]: many threads decompressing
//! learned streams whose model is *not* registered — only its frame sits in
//! the backing store — must each resolve it through the per-call read lock
//! and decode bit-identically, while writers swap other codecs' entries. No
//! deadlock, no lock poisoning, and no decode changes what is registered.

use std::sync::{Arc, Barrier};

use aesz_repro::metrics::CodecId;
use aesz_repro::resolve::decompress_frame;
use aesz_repro::{ErrorBound, SharedRegistry};

mod common;

#[test]
fn racing_threads_decode_a_store_only_model_bit_identically() {
    // A learned AESC stream plus the model frame it references. AE-A is
    // the strictly model-dependent codec: every stream is id-prefixed and
    // undecodable without the exact network (AE-SZ streams whose adaptive
    // stage picked no AE blocks decode model-free, which would bypass the
    // resolution path this test exists to race).
    let trained = common::trained_registry();
    let field = common::field_2d();
    let mut codec = trained.fork(CodecId::AeA).expect("trained aea");
    let stream = codec
        .compress(&field, ErrorBound::rel(1e-2))
        .expect("compress");
    let model = codec
        .embedded_model()
        .expect("trained codecs carry a model");
    let reference = Arc::new(codec.decompress(&stream).expect("trainer decode"));

    // Decoding side: default registry (untrained aea), model only in the
    // store — every decode must come up through store resolution.
    let shared = Arc::new(SharedRegistry::with_defaults());
    shared
        .insert_model_frame(&model.frame)
        .expect("store the frame");
    let registered = shared.registered_codec_state(CodecId::AeA);

    let threads = 16usize;
    let rounds = 8usize;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let barrier = Arc::clone(&barrier);
            let stream = stream.clone();
            let reference = Arc::clone(&reference);
            let dims = field.dims();
            std::thread::spawn(move || {
                // All threads hit the unresolved model at once.
                barrier.wait();
                for _ in 0..rounds {
                    let (got, id) = decompress_frame(&*shared, &stream).expect("decompress");
                    assert_eq!(id, CodecId::AeA);
                    assert_eq!(got.dims(), dims);
                    assert!(
                        got.as_slice()
                            .iter()
                            .zip(reference.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "a racing decode diverged from the trainer's"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panicked, no lock poisoned");
    }

    // Resolution built the model for each decode and registered nothing.
    assert_eq!(shared.registered_codec_state(CodecId::AeA), registered);
}

#[test]
fn decodes_proceed_while_other_codecs_are_registered() {
    // Readers on a hot model must not deadlock against writers swapping a
    // different codec's entry.
    let trained = common::trained_registry();
    let field = common::field_2d();
    let mut codec = trained.fork(CodecId::AeSz).expect("trained aesz");
    let stream = codec
        .compress(&field, ErrorBound::rel(1e-2))
        .expect("compress");

    let shared = Arc::new(SharedRegistry::with_defaults());
    shared.register(codec.fork());

    let writer = {
        let shared = Arc::clone(&shared);
        let other = trained.fork(CodecId::AeA).expect("trained aea");
        std::thread::spawn(move || {
            for _ in 0..64 {
                shared.register(other.fork());
            }
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let stream = stream.clone();
            std::thread::spawn(move || {
                for _ in 0..16 {
                    decompress_frame(&*shared, &stream).expect("decompress");
                }
            })
        })
        .collect();
    writer.join().expect("writer survived");
    for r in readers {
        r.join().expect("reader survived");
    }
    // The hot model never left the registry.
    assert_eq!(
        shared.registered_codec_state(CodecId::AeSz),
        Some(Some(codec.embedded_model_id().expect("trained aesz")))
    );
}
