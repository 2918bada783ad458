//! Concurrency soak of [`SharedRegistry`]: many threads decompressing
//! learned streams whose model is *not* registered — only its frame sits in
//! the backing store — must each resolve it through the per-call read lock
//! and decode bit-identically, while writers swap other codecs' entries. No
//! deadlock, no lock poisoning, and no decode changes what is registered.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use aesz_repro::metrics::{CodecId, Compressor};
use aesz_repro::resolve::decompress_frame;
use aesz_repro::{ErrorBound, SharedRegistry};
use rayon::pool::{PoolFullTagged, TaggedJob, WorkPool, WorkerLocal};

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

/// Soak of the per-worker resident-codec pattern `aesz serve` uses
/// ([`rayon::pool::WorkerLocal`] keyed by the executing worker's index):
/// every job compresses through its worker's long-lived fork, and every
/// stream must stay byte-identical to a fresh-fork compression. A codec
/// instance that accumulated state from a previous job — or a
/// [`WorkerLocal`] that ever handed one worker's slot to another mid-job —
/// would surface here as a diverged stream or a torn instance.
#[test]
fn per_worker_resident_codecs_never_leak_state_across_jobs() {
    let trained = common::trained_registry();
    let shared = Arc::new(SharedRegistry::with_defaults());
    // AE-A: the strictly model-dependent codec — if resident state drifted,
    // its streams would show it.
    shared.register(trained.fork(CodecId::AeA).expect("trained aea"));
    let field = Arc::new(common::field_2d());
    let bound = ErrorBound::rel(1e-2);
    let expected = Arc::new(
        shared
            .compress(CodecId::AeA, &field, bound)
            .expect("fresh-fork compress"),
    );

    let workers = 3usize;
    let jobs = 96usize;
    let pool = WorkPool::new(workers, workers + jobs);
    type Slot = Option<(usize, Box<dyn Compressor>)>;
    let locals: Arc<WorkerLocal<Slot>> = Arc::new(WorkerLocal::new(workers));
    let mismatches = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicUsize::new(0));

    for _ in 0..jobs {
        let shared = Arc::clone(&shared);
        let locals = Arc::clone(&locals);
        let field = Arc::clone(&field);
        let expected = Arc::clone(&expected);
        let mismatches = Arc::clone(&mismatches);
        let done = Arc::clone(&done);
        let mut job: TaggedJob = Box::new(move |worker| {
            let ok = (|| {
                let mut slot = locals.get(worker)?;
                let (owner, instance) = slot
                    .get_or_insert_with(|| (worker, shared.fork(CodecId::AeA).expect("fork aea")));
                // The slot a worker sees must always be its own.
                if *owner != worker {
                    return None;
                }
                let stream = instance.compress(&field, bound).ok()?;
                (stream.as_slice() == expected.as_slice()).then_some(())
            })();
            if ok.is_none() {
                mismatches.fetch_add(1, Ordering::Relaxed);
            }
            done.fetch_add(1, Ordering::Release);
        });
        loop {
            match pool.try_execute_with(job) {
                Ok(()) => break,
                Err(PoolFullTagged(back)) => {
                    job = back;
                    std::thread::yield_now();
                }
            }
        }
    }
    while done.load(Ordering::Acquire) < jobs {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "a resident per-worker codec produced a stream differing from a fresh fork"
    );
    // Each worker that ran at least one job forked exactly once and kept
    // the instance resident — no churn, no cross-worker sharing.
    let residents = (0..workers)
        .filter(|&w| locals.get(w).map(|s| s.is_some()).unwrap_or(false))
        .count();
    assert!(residents >= 1, "at least one worker served jobs");
}
