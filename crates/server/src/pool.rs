//! The daemon's worker pool: a fixed set of threads serving one FIFO queue.
//!
//! Every accepted connection is one job that runs for the life of its
//! connection, and the acceptor is the only submitter, so one queue behind
//! one `Mutex` and one `Condvar` is all the scheduling the daemon needs.
//! The pool refuses nothing: the acceptor reads [`WorkPool::pending`] and
//! answers `Busy` past its cap before it submits.
//!
//! Each job receives the index of the worker running it, the key into
//! [`WorkerLocal`] state such as the per-worker codec cache.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A job that receives the index of the worker thread executing it.
pub type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// One slot per worker: slot `i` belongs to worker `i`.
///
/// Only the worker a slot belongs to locks it while the pool runs (one
/// thread runs one job at a time), so the mutexes are uncontended; they
/// make the container `Sync`, so other threads (stats, tests) can inspect
/// slots safely.
pub struct WorkerLocal<T> {
    slots: Vec<Mutex<T>>,
}

impl<T: Default> WorkerLocal<T> {
    /// One default-initialised slot per worker (at least one).
    pub fn new(workers: usize) -> WorkerLocal<T> {
        WorkerLocal {
            slots: (0..workers.max(1)).map(|_| Mutex::default()).collect(),
        }
    }
}

impl<T> WorkerLocal<T> {
    /// Lock worker `worker`'s slot; `None` when the index is out of range.
    /// A slot poisoned by a panicking job is recovered.
    pub fn get(&self, worker: usize) -> Option<MutexGuard<'_, T>> {
        self.slots.get(worker).map(lock)
    }
}

struct Queue {
    jobs: VecDeque<Job>,
    /// Jobs accepted but not yet finished (queued + running).
    pending: usize,
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
}

/// A fixed-size thread pool over one FIFO queue.
pub struct WorkPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkPool {
    /// Spawn `workers` threads (at least one).
    pub fn new(workers: usize) -> WorkPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                pending: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, id))
            })
            .collect();
        WorkPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs accepted but not yet finished (queued + running).
    pub fn pending(&self) -> usize {
        lock(&self.shared.queue).pending
    }

    /// Queue `job` behind every job submitted before it.
    pub fn execute(&self, job: Job) {
        let mut queue = lock(&self.shared.queue);
        queue.jobs.push_back(job);
        queue.pending += 1;
        drop(queue);
        self.shared.ready.notify_one();
    }

    /// Run every job already accepted, then join the workers. Dropping the
    /// pool does the same.
    pub fn close(self) {}
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).closed = true;
        self.shared.ready.notify_all();
        // The last owner may be a job (a connection holding the daemon's
        // state), and a thread cannot join itself.
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            if worker.thread().id() != me {
                let _ = worker.join();
            }
        }
    }
}

/// Every lock in the pool recovers from poisoning: jobs run outside the
/// queue lock, and a panicking job leaves its slot's state to the job.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker_loop(shared: &Shared, id: usize) {
    let mut queue = lock(&shared.queue);
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            // A panicking job must not unwind through the worker: that would
            // kill the thread and keep its job pending forever, so every
            // connection past the cap would answer `Busy`. Jobs own their
            // captures, so a broken invariant stays inside the panicked
            // job's own state (hence AssertUnwindSafe).
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(id)));
            queue = lock(&shared.queue);
            queue.pending -= 1;
        } else if queue.closed {
            return;
        } else {
            queue = shared
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn runs_jobs_and_drains_on_close() {
        let pool = WorkPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            pool.execute(Box::new(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.close();
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn one_worker_starts_jobs_in_submission_order() {
        let pool = WorkPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..64 {
            let order = Arc::clone(&order);
            pool.execute(Box::new(move |_| lock(&order).push(i)));
        }
        pool.close();
        assert_eq!(*lock(&order), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_jobs_release_their_slot_and_worker() {
        let pool = WorkPool::new(1);
        for _ in 0..3 {
            pool.execute(Box::new(|_| panic!("deliberate test panic")));
        }
        // The lone worker must survive every panic to run real work, and
        // each panicked job must leave the pending count.
        let (tx, rx) = mpsc::channel();
        pool.execute(Box::new(move |_| tx.send(()).expect("test channel")));
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("worker alive after panicked jobs");
        while pool.pending() > 0 {
            std::thread::yield_now();
        }
        pool.close();
    }

    #[test]
    fn a_job_may_drop_the_last_handle_to_its_pool() {
        // A daemon shut down while a connection is open leaves that
        // connection's job holding the last handle to the pool, so the pool
        // drops on one of its own workers.
        let pool = Arc::new(WorkPool::new(2));
        let last = Arc::clone(&pool);
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        pool.execute(Box::new(move |_| {
            go_rx.recv().expect("test channel");
            drop(last);
            done_tx.send(()).expect("test channel");
        }));
        drop(pool);
        go_tx.send(()).expect("test channel");
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("dropping the pool on a worker returns");
    }

    #[test]
    fn tagged_jobs_see_a_valid_executing_worker_index() {
        let pool = WorkPool::new(3);
        let bad = Arc::new(AtomicUsize::new(0));
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..48 {
            let bad = Arc::clone(&bad);
            let ran = Arc::clone(&ran);
            pool.execute(Box::new(move |worker| {
                if worker >= 3 {
                    bad.fetch_add(1, Ordering::SeqCst);
                }
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.close();
        assert_eq!(ran.load(Ordering::SeqCst), 48);
        assert_eq!(bad.load(Ordering::SeqCst), 0, "worker index out of range");
    }

    #[test]
    fn worker_local_state_persists_across_jobs_without_cross_talk() {
        let pool = WorkPool::new(2);
        let workers = pool.workers();
        // Each slot accumulates (count, sum); every job adds its own value
        // to the slot of the worker running it. If slots leaked across
        // workers the per-slot counts could not add up to the total.
        let local = Arc::new(WorkerLocal::<(usize, u64)>::new(workers));
        for v in 0..100u64 {
            let local = Arc::clone(&local);
            pool.execute(Box::new(move |worker| {
                if let Some(mut slot) = local.get(worker) {
                    slot.0 += 1;
                    slot.1 += v;
                }
            }));
        }
        pool.close();
        let (mut count, mut sum) = (0usize, 0u64);
        for w in 0..workers {
            let slot = local.get(w).expect("slot in range");
            count += slot.0;
            sum += slot.1;
        }
        assert_eq!(count, 100);
        assert_eq!(sum, (0..100).sum::<u64>());
        assert!(local.get(workers).is_none(), "out of range is None");
    }
}
