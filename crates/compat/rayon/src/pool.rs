//! A bounded, work-stealing thread pool for long-running services.
//!
//! `rayon::scope`-style scoped parallelism (the `slice` module) fits batch
//! jobs that own their data for the duration of one call. A daemon needs
//! the opposite shape: a resident pool that outlives any one request,
//! accepts `'static` jobs from many producer threads, and — crucially —
//! *refuses* work past a configured in-flight cap so callers can answer
//! with typed backpressure instead of buffering unboundedly.
//!
//! Design:
//! * one `Mutex<VecDeque<Job>>` deque per worker; submissions go
//!   round-robin, workers pop their own deque from the front and steal
//!   from the back of the others when idle;
//! * a single `AtomicUsize` tracks jobs in flight (queued + running) and
//!   enforces the cap at submit time — [`WorkPool::try_execute_with`]
//!   either accepts the job or returns [`PoolFullTagged`] immediately;
//! * parking uses a `Condvar` with a short timeout, so a missed notify
//!   costs at most one timeout interval rather than a hang.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A job that receives the index of the worker thread executing it —
/// the key into [`WorkerLocal`] state. Stolen jobs get the *stealing*
/// worker's index, so the key always names the thread actually running.
pub type TaggedJob = Box<dyn FnOnce(usize) + Send + 'static>;

/// Returned by [`WorkPool::try_execute_with`] when the in-flight cap is
/// reached. Carries the job back so the caller can retry or drop it
/// deliberately.
pub struct PoolFullTagged(pub TaggedJob);

impl std::fmt::Debug for PoolFullTagged {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolFullTagged(..)")
    }
}

/// Fixed-size per-worker-thread state for jobs submitted through
/// [`WorkPool::try_execute_with`]: slot `i` belongs to worker `i`.
///
/// Only the worker whose index keys a slot ever locks it while the pool is
/// running (one thread runs one job at a time), so the mutexes are
/// uncontended in steady state; they exist so the container is `Sync` and
/// so external threads (stats, tests) can inspect slots safely.
pub struct WorkerLocal<T> {
    slots: Vec<Mutex<T>>,
}

impl<T> WorkerLocal<T> {
    /// One slot per worker, each built by `init`.
    pub fn with(workers: usize, mut init: impl FnMut() -> T) -> WorkerLocal<T> {
        WorkerLocal {
            slots: (0..workers.max(1)).map(|_| Mutex::new(init())).collect(),
        }
    }

    /// Number of slots (== the pool's worker count it was sized for).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Lock worker `worker`'s slot; `None` when the index is out of range.
    /// Poisoned slots are recovered, matching the pool's own lock policy.
    pub fn get(&self, worker: usize) -> Option<std::sync::MutexGuard<'_, T>> {
        self.slots
            .get(worker)
            .map(|m| m.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

impl<T: Default> WorkerLocal<T> {
    /// One default-initialised slot per worker.
    pub fn new(workers: usize) -> WorkerLocal<T> {
        Self::with(workers, T::default)
    }
}

struct Shared {
    queues: Vec<Mutex<VecDeque<TaggedJob>>>,
    /// Jobs accepted but not yet finished (queued + running).
    in_flight: AtomicUsize,
    /// Submission cap on `in_flight`.
    max_in_flight: usize,
    shutdown: AtomicBool,
    parked: Mutex<()>,
    wake: Condvar,
}

/// A fixed-size thread pool with a hard cap on queued-plus-running jobs.
pub struct WorkPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next: AtomicUsize,
}

impl WorkPool {
    /// Spawn `workers` threads (min 1) accepting at most `max_in_flight`
    /// unfinished jobs (min 1) at any moment.
    pub fn new(workers: usize, max_in_flight: usize) -> WorkPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            in_flight: AtomicUsize::new(0),
            max_in_flight: max_in_flight.max(1),
            shutdown: AtomicBool::new(false),
            parked: Mutex::new(()),
            wake: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, id))
            })
            .collect();
        WorkPool {
            shared,
            workers: handles,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Jobs accepted but not yet finished (queued + running).
    pub fn pending(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// Submit a job that receives the executing worker's index (the key
    /// into a [`WorkerLocal`] sized for this pool), or return it inside
    /// [`PoolFullTagged`] at the cap. Never blocks.
    pub fn try_execute_with(&self, job: TaggedJob) -> Result<(), PoolFullTagged> {
        if !self.reserve_slot() {
            return Err(PoolFullTagged(job));
        }
        self.push_task(job);
        Ok(())
    }

    /// Reserve an in-flight slot; `false` at the cap. CAS loop so the
    /// counter can never leak past `max_in_flight` under races.
    fn reserve_slot(&self) -> bool {
        let mut seen = self.shared.in_flight.load(Ordering::Acquire);
        loop {
            if seen >= self.shared.max_in_flight {
                return false;
            }
            match self.shared.in_flight.compare_exchange_weak(
                seen,
                seen + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => seen = actual,
            }
        }
    }

    /// Enqueue a reserved job round-robin and wake the workers.
    fn push_task(&self, task: TaggedJob) {
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        if let Some(queue) = self.shared.queues.get(slot) {
            let mut guard = queue.lock().unwrap_or_else(|p| p.into_inner());
            guard.push_back(task);
        } else {
            // Unreachable by construction (slot < queues.len()); undo the
            // reservation rather than lose the slot.
            self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        self.shared.wake.notify_all();
    }

    /// Signal shutdown and join every worker. Jobs already accepted are
    /// drained before the workers exit.
    pub fn close(mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake.notify_all();
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn pop_job(shared: &Shared, id: usize) -> Option<TaggedJob> {
    // Own queue first (front: FIFO for fairness)...
    if let Some(queue) = shared.queues.get(id) {
        let mut guard = queue.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(job) = guard.pop_front() {
            return Some(job);
        }
    }
    // ...then steal from the back of the others.
    for (other, queue) in shared.queues.iter().enumerate() {
        if other == id {
            continue;
        }
        let mut guard = queue.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(job) = guard.pop_back() {
            return Some(job);
        }
    }
    None
}

fn worker_loop(shared: &Shared, id: usize) {
    loop {
        if let Some(job) = pop_job(shared, id) {
            // A panicking job must not unwind through the worker: that would
            // kill the thread and leak its in-flight slot, shrinking the
            // pool one panic at a time until every submit answers full.
            // Catch the unwind, release the slot, keep serving. Jobs own
            // their captures, so a broken invariant stays inside the
            // panicked job's own state (hence AssertUnwindSafe).
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(id)));
            shared.in_flight.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Park with a timeout: a notify racing past between the queue
        // check above and this wait costs one interval, not a hang.
        let guard = shared.parked.lock().unwrap_or_else(|p| p.into_inner());
        let _ = shared
            .wake
            .wait_timeout(guard, std::time::Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn runs_jobs_and_drains_on_close() {
        let pool = WorkPool::new(4, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            pool.try_execute_with(Box::new(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("under cap");
        }
        pool.close();
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn cap_rejects_deterministically() {
        let pool = WorkPool::new(1, 1);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.try_execute_with(Box::new(move |_| {
            started_tx.send(()).expect("test channel");
            release_rx.recv().expect("test channel");
        }))
        .expect("first job fits");
        // The worker is now provably busy (it signalled) and the cap is 1,
        // so the next submission must bounce.
        started_rx.recv().expect("job started");
        let err = pool.try_execute_with(Box::new(|_| {}));
        assert!(err.is_err(), "expected PoolFullTagged at the cap");
        release_tx.send(()).expect("test channel");
        // After the job finishes the slot frees up again.
        loop {
            if pool.pending() == 0 {
                break;
            }
            std::thread::yield_now();
        }
        pool.try_execute_with(Box::new(|_| {})).expect("slot freed");
        pool.close();
    }

    #[test]
    fn panicking_jobs_release_their_slot_and_worker() {
        let pool = WorkPool::new(1, 2);
        for _ in 0..3 {
            // Spin until a slot frees: more panicking jobs than the cap
            // proves slots are released, not leaked.
            loop {
                if pool
                    .try_execute_with(Box::new(|_| panic!("deliberate test panic")))
                    .is_ok()
                {
                    break;
                }
                std::thread::yield_now();
            }
        }
        while pool.pending() > 0 {
            std::thread::yield_now();
        }
        // The lone worker must have survived every panic to run real work.
        let (tx, rx) = mpsc::channel();
        pool.try_execute_with(Box::new(move |_| tx.send(()).expect("test channel")))
            .expect("slots free after panicked jobs");
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("worker alive after panicked jobs");
        pool.close();
    }

    #[test]
    fn tagged_jobs_see_a_valid_executing_worker_index() {
        let pool = WorkPool::new(3, 64);
        let bad = Arc::new(AtomicUsize::new(0));
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..48 {
            let bad = Arc::clone(&bad);
            let ran = Arc::clone(&ran);
            pool.try_execute_with(Box::new(move |worker| {
                if worker >= 3 {
                    bad.fetch_add(1, Ordering::SeqCst);
                }
                ran.fetch_add(1, Ordering::SeqCst);
            }))
            .expect("under cap");
        }
        pool.close();
        assert_eq!(ran.load(Ordering::SeqCst), 48);
        assert_eq!(bad.load(Ordering::SeqCst), 0, "worker index out of range");
    }

    #[test]
    fn worker_local_state_persists_across_jobs_without_cross_talk() {
        let pool = WorkPool::new(2, 64);
        // Each slot accumulates (count, sum); every job adds its own value
        // to the slot of the worker running it. If slots leaked across
        // workers the per-slot counts could not add up to the total.
        let local = Arc::new(WorkerLocal::<(usize, u64)>::new(pool.workers()));
        for v in 0..100u64 {
            let local = Arc::clone(&local);
            let mut job: TaggedJob = Box::new(move |worker| {
                if let Some(mut slot) = local.get(worker) {
                    slot.0 += 1;
                    slot.1 += v;
                }
            });
            // Spin until the in-flight cap admits the job.
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
        pool.close();
        let (mut count, mut sum) = (0usize, 0u64);
        for w in 0..local.slots() {
            let slot = local.get(w).expect("slot in range");
            count += slot.0;
            sum += slot.1;
        }
        assert_eq!(count, 100);
        assert_eq!(sum, (0..100).sum::<u64>());
        assert!(local.get(local.slots()).is_none(), "out of range is None");
    }

    #[test]
    fn many_producers_never_exceed_cap() {
        let pool = Arc::new(WorkPool::new(2, 8));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                let peak = Arc::clone(&peak);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let _ = pool.try_execute_with(Box::new(|_| {
                            std::thread::yield_now();
                        }));
                        peak.fetch_max(pool.pending(), Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 8);
    }
}
