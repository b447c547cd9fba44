//! Per-worker fault deques with work stealing.
//!
//! Each worker owns the front of its deque; idle workers steal from the
//! *back* of a victim's deque, so an owner and a thief contend only when
//! one item is left.  Items are class indices — plain `usize`s — and are
//! never re-enqueued, so termination is simply "every deque is empty".
//! (Built on `std::sync::Mutex` because the workspace is dependency-free;
//! the deques are coarse-grained but the unit of work — a three-phase
//! search — dwarfs the lock cost.)

use std::collections::VecDeque;
use std::sync::Mutex;

/// The sharded queues of one engine run.
pub struct ShardedQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

/// Where a popped item came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Popped {
    /// From the worker's own deque.
    Own(usize),
    /// Stolen from `victim`'s deque.
    Stolen {
        /// The item.
        item: usize,
        /// The worker it was taken from.
        victim: usize,
    },
}

impl Popped {
    /// The class index regardless of provenance.
    pub fn item(self) -> usize {
        match self {
            Popped::Own(i) => i,
            Popped::Stolen { item, .. } => item,
        }
    }
}

impl ShardedQueues {
    /// Distributes `items` round-robin over `workers` deques.
    pub fn new(workers: usize, items: &[usize]) -> Self {
        assert!(workers > 0, "at least one worker");
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
        for (i, &item) in items.iter().enumerate() {
            queues[i % workers].push_back(item);
        }
        ShardedQueues {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Pops the next item for `worker`: front of its own deque first,
    /// then the back of the fullest other deque.  `None` means every
    /// deque is empty and the worker can retire.
    pub fn pop(&self, worker: usize) -> Option<Popped> {
        if let Some(item) = self.queues[worker].lock().expect("queue lock").pop_front() {
            return Some(Popped::Own(item));
        }
        // Steal from the victim with the most pending work.
        let mut best: Option<(usize, usize)> = None; // (len, victim)
        for v in 0..self.queues.len() {
            if v == worker {
                continue;
            }
            let len = self.queues[v].lock().expect("queue lock").len();
            if len > 0 && best.map(|(l, _)| len > l).unwrap_or(true) {
                best = Some((len, v));
            }
        }
        let (_, victim) = best?;
        self.queues[victim]
            .lock()
            .expect("queue lock")
            .pop_back()
            .map(|item| Popped::Stolen { item, victim })
    }

    /// Removes every pending item that `drop_if` approves from `worker`'s
    /// own deque, returning how many were removed.  This is the screening
    /// path: a logged test screens this worker's backlog.
    pub fn drop_pending(
        &self,
        worker: usize,
        drop_if: impl FnOnce(&[usize]) -> Vec<usize>,
    ) -> usize {
        let mut q = self.queues[worker].lock().expect("queue lock");
        let snapshot: Vec<usize> = q.iter().copied().collect();
        if snapshot.is_empty() {
            return 0;
        }
        let doomed = drop_if(&snapshot);
        if doomed.is_empty() {
            return 0;
        }
        let before = q.len();
        q.retain(|item| !doomed.contains(item));
        before - q.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn round_robin_distribution() {
        let items: Vec<usize> = (0..10).collect();
        let q = ShardedQueues::new(3, &items);
        // Worker 0 gets 0,3,6,9; worker 1 gets 1,4,7; worker 2 gets 2,5,8.
        assert_eq!(q.pop(0), Some(Popped::Own(0)));
        assert_eq!(q.pop(1), Some(Popped::Own(1)));
        assert_eq!(q.pop(2), Some(Popped::Own(2)));
    }

    #[test]
    fn drains_every_item_exactly_once() {
        let items: Vec<usize> = (0..100).collect();
        let q = ShardedQueues::new(4, &items);
        let mut seen = HashSet::new();
        // Single consumer drains everything, stealing included.
        while let Some(p) = q.pop(2) {
            assert!(seen.insert(p.item()), "duplicate {}", p.item());
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn steals_from_fullest_victim() {
        let q = ShardedQueues::new(3, &[0, 1, 2, 4, 7]);
        // Deques: w0 = [0, 4], w1 = [1, 7], w2 = [2].
        assert_eq!(q.pop(2), Some(Popped::Own(2)));
        // w2 now empty; both victims have 2 items; the first maximal one
        // (w0) is chosen, stealing its back item.
        assert_eq!(q.pop(2), Some(Popped::Stolen { item: 4, victim: 0 }));
    }

    #[test]
    fn drop_pending_removes_only_approved() {
        let q = ShardedQueues::new(1, &[10, 11, 12, 13]);
        let removed = q.drop_pending(0, |pending| {
            pending.iter().copied().filter(|&i| i % 2 == 0).collect()
        });
        assert_eq!(removed, 2);
        let mut left = Vec::new();
        while let Some(p) = q.pop(0) {
            left.push(p.item());
        }
        assert_eq!(left, vec![11, 13]);
    }

    #[test]
    fn concurrent_drain_is_exactly_once() {
        let items: Vec<usize> = (0..500).collect();
        let q = ShardedQueues::new(4, &items);
        let seen = Mutex::new(HashSet::new());
        let (q, seen_ref) = (&q, &seen);
        std::thread::scope(|s| {
            for w in 0..4 {
                s.spawn(move || {
                    while let Some(p) = q.pop(w) {
                        assert!(seen_ref.lock().unwrap().insert(p.item()));
                    }
                });
            }
        });
        assert_eq!(seen.into_inner().unwrap().len(), 500);
    }
}
