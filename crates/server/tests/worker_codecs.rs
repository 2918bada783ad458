//! Soak of the per-worker resident-codec pattern `aesz serve` uses: a
//! [`WorkerLocal`] keyed by the index of the pool worker running each job.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use aesz_datagen::Application;
use aesz_repro::baselines::AeA;
use aesz_repro::metrics::{CodecId, Compressor};
use aesz_repro::{Dims, ErrorBound, SharedRegistry};
use aesz_server::pool::{WorkPool, WorkerLocal};

/// Every job compresses through its worker's long-lived fork, and every
/// stream must stay byte-identical to a fresh-fork compression. A codec
/// instance that accumulated state from a previous job — or a
/// [`WorkerLocal`] that ever handed one worker's slot to another mid-job —
/// would surface here as a diverged stream or a torn instance.
#[test]
fn per_worker_resident_codecs_never_leak_state_across_jobs() {
    // AE-A: the strictly model-dependent codec — if resident state drifted,
    // its streams would show it.
    let mut ae_a = AeA::new(5);
    let train = Application::CesmCldhgh.generate(Dims::d2(32, 48), 0);
    ae_a.train(std::slice::from_ref(&train), 1, 6);
    let shared = Arc::new(SharedRegistry::with_defaults());
    shared.register(Box::new(ae_a));
    let field = Arc::new(Application::CesmCldhgh.generate(Dims::d2(32, 48), 50));
    let bound = ErrorBound::rel(1e-2);
    let expected = Arc::new(
        shared
            .compress(CodecId::AeA, &field, bound)
            .expect("fresh-fork compress"),
    );

    let workers = 3usize;
    let jobs = 96usize;
    let pool = WorkPool::new(workers);
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
        pool.execute(Box::new(move |worker| {
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
            done.fetch_add(1, Ordering::Relaxed);
        }));
    }
    pool.close();
    assert_eq!(done.load(Ordering::Relaxed), jobs, "close drains every job");
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
