//! A bounded FIFO thread pool: `workers` threads take jobs in arrival
//! order from one `sync_channel`. `spawn` blocks once `queue_cap` jobs
//! are pending, which is the server's connection backpressure: accepting
//! more clients than the pool can seat parks them in the queue instead of
//! growing it without bound.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool handle. Dropping it closes the queue and joins every worker
/// once the jobs already queued have run.
pub(crate) struct Pool {
    queue: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool with `workers` threads and a queue bounded at
    /// `queue_cap` pending jobs (minimums of 1 apply to both).
    pub(crate) fn new(workers: usize, queue_cap: usize) -> Pool {
        let (queue, jobs) = sync_channel::<Job>(queue_cap.max(1));
        let jobs = Arc::new(Mutex::new(jobs));
        let spawn_worker = |i| {
            let jobs = Arc::clone(&jobs);
            std::thread::Builder::new()
                .name(format!("lfs-pool-{i}"))
                .spawn(move || worker_loop(&jobs))
                .expect("spawn pool worker")
        };
        let workers = (0..workers.max(1)).map(spawn_worker).collect();
        let queue = Some(queue);
        Pool { queue, workers }
    }

    /// Queues `job`, blocking while the queue is at capacity. Returns
    /// `false` (dropping the job) when no worker is left to run it.
    pub(crate) fn spawn(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let queue = self.queue.as_ref().expect("the queue closes on drop");
        queue.send(Box::new(job)).is_ok()
    }

    /// Drops the pool: see [`Pool`].
    pub(crate) fn shutdown(self) {}
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.queue = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Runs jobs in queue order until the queue is closed and empty. The
/// receiver's lock is held only while waiting for the next job.
fn worker_loop(jobs: &Mutex<Receiver<Job>>) {
    loop {
        let job = jobs.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let Ok(job) = job else { return };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;

    #[test]
    fn runs_every_job_exactly_once() {
        let pool = Pool::new(4, 8);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..1000 {
            let count = Arc::clone(&count);
            assert!(pool.spawn(move || {
                count.fetch_add(1, Ordering::AcqRel);
            }));
        }
        pool.shutdown();
        assert_eq!(count.load(Ordering::Acquire), 1000);
    }

    #[test]
    fn spawn_blocks_at_capacity_instead_of_growing() {
        let pool = Pool::new(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Park the single worker.
        let g = Arc::clone(&gate);
        pool.spawn(move || {
            let (m, c) = &*g;
            let mut open = m.lock().unwrap();
            while !*open {
                open = c.wait(open).unwrap();
            }
        });
        // Fill the injector past capacity from a second thread: with the
        // worker parked, the 3rd/4th spawns must block rather than queue.
        let done = Arc::new(AtomicUsize::new(0));
        let queued = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..4 {
                    let done = Arc::clone(&done);
                    assert!(pool.spawn(move || {
                        done.fetch_add(1, Ordering::AcqRel);
                    }));
                    queued.fetch_add(1, Ordering::AcqRel);
                }
            });
            // Give the spawner time to hit the cap, then check it is
            // actually stuck before opening the gate.
            std::thread::sleep(std::time::Duration::from_millis(100));
            let stalled_at = queued.load(Ordering::Acquire);
            assert!(
                stalled_at < 4,
                "spawn never blocked: all {stalled_at} jobs queued past cap"
            );
            let (m, c) = &*gate;
            *m.lock().unwrap() = true;
            c.notify_all();
        });
        pool.shutdown();
        assert_eq!(done.load(Ordering::Acquire), 4);
    }
}
