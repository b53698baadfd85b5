//! The admission queue: bounded, blocking, and same-key batch-aware.
//!
//! `std::sync::mpsc` is single-consumer and strictly FIFO, which rules
//! out the two things serving admission needs: several workers draining
//! one queue, and a worker pulling *all* queued requests for one
//! [`PlanKey`] in a single swoop. So the queue here is the classic
//! condvar-bounded deque, plus one serving-specific operation:
//! [`JobQueue::pop_batch`] removes the oldest job and then sweeps every
//! other queued job with the same key (up to a batch cap), preserving
//! per-key submission order. One plan lookup then serves the whole
//! batch.

use distal_core::PlanKey;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A queue entry: a keyed unit of work handed from [`push`] to
/// [`pop_batch`] intact.
///
/// [`push`]: JobQueue::push
/// [`pop_batch`]: JobQueue::pop_batch
#[derive(Debug)]
pub(crate) struct Keyed<T> {
    pub(crate) key: PlanKey,
    pub(crate) job: T,
}

#[derive(Debug)]
struct State<T> {
    jobs: VecDeque<Keyed<T>>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue of keyed jobs.
///
/// * **Backpressure**: [`JobQueue::push`] blocks while the queue is at
///   capacity, so producers slow to the rate workers actually sustain
///   instead of growing an unbounded backlog.
/// * **Micro-batching**: [`JobQueue::pop_batch`] drains same-key runs
///   (see module docs).
/// * **Shutdown**: [`JobQueue::close`] wakes everyone; blocked pushes
///   fail, and pops drain the remainder before reporting exhaustion.
#[derive(Debug)]
pub(crate) struct JobQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a job, blocking while the queue is full. Returns the job
    /// back to the caller if the queue is (or gets) closed.
    pub(crate) fn push(&self, entry: Keyed<T>) -> Result<(), Keyed<T>> {
        let mut s = self.state.lock().expect("poisoned job queue");
        loop {
            if s.closed {
                return Err(entry);
            }
            if s.jobs.len() < self.capacity {
                s.jobs.push_back(entry);
                drop(s);
                self.not_empty.notify_one();
                return Ok(());
            }
            s = self.not_full.wait(s).expect("poisoned job queue");
        }
    }

    /// Dequeues the oldest job plus every other queued job sharing its
    /// key, at most `max_batch` in total and in submission order. Blocks
    /// while the queue is empty; returns `None` once it is closed *and*
    /// drained.
    pub(crate) fn pop_batch(&self, max_batch: usize) -> Option<Vec<Keyed<T>>> {
        let max_batch = max_batch.max(1);
        let mut s = self.state.lock().expect("poisoned job queue");
        loop {
            if let Some(head) = s.jobs.pop_front() {
                let mut batch = Vec::with_capacity(max_batch.min(8));
                let key = head.key.clone();
                batch.push(head);
                let mut i = 0;
                while i < s.jobs.len() && batch.len() < max_batch {
                    if s.jobs[i].key == key {
                        batch.push(s.jobs.remove(i).expect("indexed job vanished"));
                    } else {
                        i += 1;
                    }
                }
                drop(s);
                // Every dequeued job frees a capacity slot; waking all
                // blocked producers keeps them racing for the slots
                // instead of parking behind a single notify.
                self.not_full.notify_all();
                return Some(batch);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).expect("poisoned job queue");
        }
    }

    /// Closes the queue: blocked pushes fail, and pops drain what is
    /// left.
    pub(crate) fn close(&self) {
        let mut s = self.state.lock().expect("poisoned job queue");
        s.closed = true;
        drop(s);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Jobs currently queued (stale by the time the caller looks at it).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("poisoned job queue").jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_core::{DistalMachine, Problem, RuntimeBackend, Schedule, TensorSpec};
    use distal_format::Format;
    use distal_machine::grid::Grid;
    use distal_machine::spec::{MachineSpec, MemKind, ProcKind};

    fn key(chunk: i64) -> PlanKey {
        let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
        let mut p = Problem::new(MachineSpec::small(2), machine);
        p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        for t in ["A", "B", "C"] {
            p.tensor(TensorSpec::new(t, vec![8, 8], f.clone())).unwrap();
        }
        PlanKey::new(
            &RuntimeBackend::functional(),
            &p,
            &Schedule::summa(2, 2, chunk),
        )
    }

    #[test]
    fn pop_batch_sweeps_same_key_in_submission_order() {
        let q: JobQueue<u32> = JobQueue::new(16);
        let (k1, k2, k3) = (key(1), key(2), key(3));
        for (k, job) in [(&k1, 0), (&k2, 1), (&k1, 2), (&k1, 3), (&k3, 4)] {
            q.push(Keyed {
                key: k.clone(),
                job,
            })
            .unwrap();
        }
        // Oldest job's key sweeps its whole run, preserving FIFO per key
        // and leaving other keys in place.
        let batch = q.pop_batch(8).unwrap();
        assert_eq!(batch.iter().map(|e| e.job).collect::<Vec<_>>(), [0, 2, 3]);
        assert!(batch.iter().all(|e| e.key == k1));
        assert_eq!(q.pop_batch(8).unwrap()[0].job, 1);
        assert_eq!(q.pop_batch(8).unwrap()[0].job, 4);
        // The cap is respected: 3 same-key jobs, max_batch 2.
        for job in [5, 6, 7] {
            q.push(Keyed {
                key: k1.clone(),
                job,
            })
            .unwrap();
        }
        assert_eq!(
            q.pop_batch(2)
                .unwrap()
                .iter()
                .map(|e| e.job)
                .collect::<Vec<_>>(),
            [5, 6]
        );
        // Close: the remainder drains, then pops report exhaustion.
        q.close();
        assert_eq!(q.pop_batch(2).unwrap()[0].job, 7);
        assert!(q.pop_batch(2).is_none());
        assert!(q.push(Keyed { key: k1, job: 9 }).is_err());
    }

    #[test]
    fn backpressure_blocks_until_a_slot_frees() {
        let q: JobQueue<u32> = JobQueue::new(2);
        let k = key(1);
        q.push(Keyed {
            key: k.clone(),
            job: 0,
        })
        .unwrap();
        q.push(Keyed {
            key: k.clone(),
            job: 1,
        })
        .unwrap();
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                // Blocks: the queue is full until the consumer pops.
                q.push(Keyed {
                    key: key(1),
                    job: 2,
                })
                .unwrap();
            });
            let batch = q.pop_batch(8).unwrap();
            assert!(!batch.is_empty());
            producer.join().unwrap();
        });
        assert!(q.len() >= 1);
    }
}
