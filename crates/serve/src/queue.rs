//! The MPMC job queue between connection readers and mapping workers.
//!
//! A deliberately boring `Mutex<VecDeque> + Condvar` queue — the daemon's
//! throughput is bounded by mapping work measured in milliseconds, not by
//! queue handoff measured in nanoseconds, so lock-free cleverness would buy
//! nothing and cost auditability. What matters here is the *closing*
//! protocol: [`JobQueue::close`] flips a flag and wakes every sleeper, after
//! which pushes are refused but pops keep draining queued items until the
//! queue is empty. That single property is what makes graceful shutdown
//! ("finish everything already accepted, accept nothing new") a one-liner
//! in the server.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// A closable blocking MPMC FIFO.
#[derive(Debug)]
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> JobQueue<T> {
    /// Creates an open, empty queue.
    pub fn new() -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // A worker panicking between push and pop poisons nothing of ours:
        // the queue state is valid at every instruction boundary, so just
        // take the guard back.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `item`; hands it back as `Err` when the queue is closed.
    ///
    /// # Errors
    ///
    /// `Err(item)` after [`JobQueue::close`] — the caller keeps ownership
    /// and typically answers with a `shutting_down` frame.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once the queue is closed *and*
    /// drained — the worker's signal to exit.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: future pushes fail, queued items still drain.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Items currently queued (racy by nature; for stats only).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is empty right now (stats only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for JobQueue<T> {
    fn default() -> Self {
        JobQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_is_preserved() {
        let q = JobQueue::new();
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn close_drains_queued_items_then_returns_none() {
        let q = JobQueue::new();
        q.push("a").unwrap();
        q.push("b").unwrap();
        q.close();
        assert_eq!(q.push("c"), Err("c"));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_on_close() {
        let q = Arc::new(JobQueue::new());
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = 0;
                    while q.pop().is_some() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        for i in 0..100 {
            q.push(i).unwrap();
        }
        q.close();
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 100);
    }
}
