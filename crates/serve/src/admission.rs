//! Admission control: a bounded queue between the acceptor and workers.
//!
//! The acceptor thread calls [`AdmissionQueue::try_admit`] for every
//! connection. If the queue is at capacity the caller sheds the request
//! with `429 Retry-After` instead of letting latency pile up invisibly —
//! an explicit, bounded failure beats an unbounded backlog. Workers block
//! in [`AdmissionQueue::pop_batch`]; on shutdown [`AdmissionQueue::close`] wakes
//! them all, and each drains what is already queued before exiting.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// One admitted connection, stamped so the worker can report queue wait.
#[derive(Debug)]
pub struct Job {
    /// The accepted client connection, not yet read from.
    pub stream: TcpStream,
    /// When the acceptor admitted the connection.
    pub accepted_at: Instant,
}

/// Outcome of an admission attempt. The refused variants hand the stream
/// back so the acceptor can answer `429`/`503` on it.
#[derive(Debug)]
pub enum Admit {
    /// Admitted; the queue now holds this many jobs.
    Queued(usize),
    /// The queue is at capacity — shed the request.
    Full(TcpStream),
    /// The server is shutting down — refuse the request.
    Closed(TcpStream),
}

#[derive(Debug)]
struct Inner {
    queue: VecDeque<Job>,
    closed: bool,
}

/// A bounded MPMC queue of accepted connections.
#[derive(Debug)]
pub struct AdmissionQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    /// Creates a queue holding at most `capacity` waiting connections.
    /// Capacity is clamped to at least 1 — a zero-capacity queue would
    /// shed every request.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Tries to enqueue a connection without blocking.
    pub fn try_admit(&self, stream: TcpStream) -> Admit {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return Admit::Closed(stream);
        }
        if inner.queue.len() >= self.capacity {
            return Admit::Full(stream);
        }
        inner.queue.push_back(Job {
            stream,
            accepted_at: Instant::now(),
        });
        let depth = inner.queue.len();
        drop(inner);
        self.ready.notify_one();
        Admit::Queued(depth)
    }

    /// Blocks until at least one job is available, then drains up to
    /// `max` jobs in one grab — the server's "join the current batch"
    /// dequeue. Whatever is queued *right now* becomes one mining batch;
    /// nobody waits for stragglers. `None` tells the worker to exit.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<Job>> {
        let max = max.max(1);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !inner.queue.is_empty() {
                let take = inner.queue.len().min(max);
                let batch: Vec<Job> = inner.queue.drain(..take).collect();
                return Some(batch);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks the queue closed and wakes every blocked worker. Jobs already
    /// queued are still handed out (graceful drain); new admissions get
    /// [`Admit::Closed`].
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Number of jobs currently waiting (racy, for `/stats`).
    pub fn depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .len()
    }

    /// The configured capacity (after the ≥1 clamp).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;

    /// A connected socket pair for feeding the queue in tests.
    fn socket() -> TcpStream {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let _server = listener.accept().expect("accept");
        client
    }

    #[test]
    fn fills_up_then_sheds() {
        let q = AdmissionQueue::new(2);
        assert!(matches!(q.try_admit(socket()), Admit::Queued(1)));
        assert!(matches!(q.try_admit(socket()), Admit::Queued(2)));
        assert!(matches!(q.try_admit(socket()), Admit::Full(_)));
        assert_eq!(q.depth(), 2);
        // Popping frees a slot.
        assert!(q.pop_batch(1).is_some());
        assert!(matches!(q.try_admit(socket()), Admit::Queued(2)));
    }

    #[test]
    fn close_refuses_new_work_but_drains_old() {
        let q = AdmissionQueue::new(4);
        assert!(matches!(q.try_admit(socket()), Admit::Queued(1)));
        q.close();
        assert!(matches!(q.try_admit(socket()), Admit::Closed(_)));
        // The queued job still comes out, then workers see None.
        assert!(q.pop_batch(1).is_some());
        assert!(q.pop_batch(1).is_none());
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(AdmissionQueue::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(1).is_none())
        };
        // Give the worker a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(waiter.join().expect("join"), "worker saw shutdown");
    }

    #[test]
    fn pop_batch_drains_whatever_is_queued_up_to_max() {
        let q = AdmissionQueue::new(8);
        for _ in 0..5 {
            assert!(matches!(q.try_admit(socket()), Admit::Queued(_)));
        }
        let batch = q.pop_batch(3).expect("batch");
        assert_eq!(batch.len(), 3);
        let rest = q.pop_batch(16).expect("rest");
        assert_eq!(rest.len(), 2);
        assert_eq!(q.depth(), 0);
        // Closed and empty → workers see None.
        q.close();
        assert!(q.pop_batch(4).is_none());
    }

    #[test]
    fn capacity_zero_is_clamped() {
        let q = AdmissionQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(matches!(q.try_admit(socket()), Admit::Queued(1)));
        assert!(matches!(q.try_admit(socket()), Admit::Full(_)));
    }
}
