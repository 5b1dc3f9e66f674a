//! Bounded multi-producer/multi-consumer job queue.
//!
//! `Mutex<VecDeque> + Condvar` — no lock-free cleverness needed: the queue
//! hands whole requests to worker threads, so the per-item cost is
//! dominated by model evaluation, not the lock. What matters for serving
//! is the *bound*: [`BoundedQueue::try_push`] never blocks and fails when
//! the queue is full, which is the admission-control primitive the
//! connection readers use to shed load instead of buffering unboundedly.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// A bounded MPMC queue with non-blocking producers and blocking consumers.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    takers: Condvar,
    capacity: usize,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            takers: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item`, or returns it when the queue is full or closed.
    /// Never blocks — this is the load-shedding decision point.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.closed || st.items.len() >= self.capacity {
            return Err(item);
        }
        st.items.push_back(item);
        drop(st);
        self.takers.notify_one();
        Ok(())
    }

    /// Dequeues up to `max` items in FIFO order into `out` (which is
    /// cleared first), blocking while the queue is empty. One wake-up
    /// drains the whole backlog up to `max` — the primitive behind the
    /// workers' batched `estimate_into` hot loop: under load a worker
    /// picks up many queued requests per lock acquisition instead of one.
    /// Returns `false` once the queue is closed *and* drained — the worker
    /// shutdown signal.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> bool {
        out.clear();
        let max = max.max(1);
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !st.items.is_empty() {
                while out.len() < max {
                    match st.items.pop_front() {
                        Some(item) => out.push(item),
                        None => break,
                    }
                }
                let leftover = !st.items.is_empty();
                drop(st);
                if leftover {
                    // We may have absorbed several producers' notifies;
                    // pass one on so another consumer takes the rest.
                    self.takers.notify_one();
                }
                return true;
            }
            if st.closed {
                return false;
            }
            st = self
                .takers
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: producers fail from now on, consumers drain the
    /// backlog and then observe `false`.
    pub fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.takers.notify_all();
    }

    /// The configured capacity — the admission-control threshold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued items (advisory; racy by nature).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .len()
    }

    /// `true` when no items are queued (advisory; racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// One item, the way a worker takes it (`None` at end of queue).
    fn pop_one<T>(q: &BoundedQueue<T>) -> Option<T> {
        let mut out = Vec::with_capacity(1);
        q.pop_batch(&mut out, 1).then(|| out.pop()).flatten()
    }

    #[test]
    fn fifo_order_and_capacity_bound() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "third push must shed");
        assert_eq!(pop_one(&q), Some(1));
        assert!(q.try_push(3).is_ok());
        assert_eq!(pop_one(&q), Some(2));
        assert_eq!(pop_one(&q), Some(3));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(3), "closed queue rejects producers");
        let mut out = Vec::new();
        assert!(q.pop_batch(&mut out, 16), "backlog still drains");
        assert_eq!(out, vec![1, 2]);
        assert!(!q.pop_batch(&mut out, 16), "then consumers see end-of-queue");
        assert!(out.is_empty());
    }

    #[test]
    fn pop_batch_drains_fifo_up_to_max() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let mut out = vec![99]; // stale contents must be cleared
        assert!(q.pop_batch(&mut out, 3));
        assert_eq!(out, vec![0, 1, 2]);
        assert!(q.pop_batch(&mut out, 3));
        assert_eq!(out, vec![3, 4]);
        q.close();
        assert!(!q.pop_batch(&mut out, 3));
        assert!(out.is_empty());
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || pop_one(&q2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(BoundedQueue::new(8));
        let total = 500u32;
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..total {
                        let mut item = p * 10_000 + i;
                        loop {
                            match q.try_push(item) {
                                Ok(()) => break,
                                Err(back) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let (mut got, mut batch) = (Vec::new(), Vec::new());
                    while q.pop_batch(&mut batch, 4) {
                        got.append(&mut batch);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expect: Vec<u32> = (0..total).chain((0..total).map(|i| 10_000 + i)).collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }
}
