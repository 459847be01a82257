//! Channel primitives wiring sync clients to the server thread.
//!
//! - [`mpsc`]: unbounded multi-producer request queue with one blocking
//!   receiver (the server thread). Dropping the [`Receiver`] closes the
//!   queue: every value still queued is dropped, and every later
//!   [`Sender::send`] fails and hands its value back.
//! - [`oneshot`]: blocking single-value reply slot. The server completes it
//!   synchronously inside a batch; the client thread parks on a condvar.
//!
//! A request carries its [`OneSender`], so dropping a queued request closes
//! its reply slot: when the server thread exits (normally or by a panic
//! unwinding through it), no client stays blocked.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

struct Queue<T> {
    items: VecDeque<T>,
    /// Set when the receiver drops; sends fail from then on.
    closed: bool,
    /// The receiver is parked on `ready`: only then does a send pay for a
    /// notify (a wake system call).
    waiting: bool,
}

struct MpscInner<T> {
    queue: Mutex<Queue<T>>,
    ready: Condvar,
}

pub struct Sender<T> {
    inner: Arc<MpscInner<T>>,
}

pub struct Receiver<T> {
    inner: Arc<MpscInner<T>>,
}

/// Unbounded queue: any number of senders, one blocking receiver.
pub fn mpsc<T: Send>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(MpscInner {
        queue: Mutex::new(Queue { items: VecDeque::new(), closed: false, waiting: false }),
        ready: Condvar::new(),
    });
    (Sender { inner: Arc::clone(&inner) }, Receiver { inner })
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Sender<T> {
    /// Enqueue and wake the receiver. Never blocks (the queue is
    /// unbounded); fails with the value once the receiver has dropped.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut q = self.inner.queue.lock();
        if q.closed {
            return Err(value);
        }
        q.items.push_back(value);
        let wake = q.waiting;
        drop(q);
        if wake {
            self.inner.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Pop without waiting; used by the batcher to drain a burst after the
    /// first request.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.queue.lock().items.pop_front()
    }

    /// Block until a value arrives, or until `deadline` passes (`None`
    /// waits indefinitely); `None` means the deadline passed first.
    pub fn recv_until(&self, deadline: Option<Instant>) -> Option<T> {
        let mut q = self.inner.queue.lock();
        loop {
            if let Some(v) = q.items.pop_front() {
                return Some(v);
            }
            let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return None;
            }
            q.waiting = true;
            q = match left {
                None => self.inner.ready.wait(q),
                Some(left) => self.inner.ready.wait_timeout(q, left).0,
            };
            q.waiting = false;
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let orphans = {
            let mut q = self.inner.queue.lock();
            q.closed = true;
            std::mem::take(&mut q.items)
        };
        // Dropped outside the lock: each orphan's drop may wake a client.
        drop(orphans);
    }
}

struct OneshotInner<T> {
    slot: Mutex<OneshotSlot<T>>,
    cv: Condvar,
}

enum OneshotSlot<T> {
    Empty,
    Full(T),
    /// Sender dropped without sending.
    Closed,
}

pub struct OneSender<T> {
    inner: Arc<OneshotInner<T>>,
    sent: bool,
}

pub struct OneReceiver<T> {
    inner: Arc<OneshotInner<T>>,
}

/// Single-value reply slot: the server sends, the client thread blocks.
pub fn oneshot<T: Send>() -> (OneSender<T>, OneReceiver<T>) {
    let inner = Arc::new(OneshotInner { slot: Mutex::new(OneshotSlot::Empty), cv: Condvar::new() });
    (OneSender { inner: Arc::clone(&inner), sent: false }, OneReceiver { inner })
}

impl<T> OneSender<T> {
    pub fn send(mut self, value: T) {
        *self.inner.slot.lock() = OneshotSlot::Full(value);
        self.sent = true;
        self.inner.cv.notify_one();
    }
}

impl<T> Drop for OneSender<T> {
    fn drop(&mut self) {
        if !self.sent {
            *self.inner.slot.lock() = OneshotSlot::Closed;
            self.inner.cv.notify_one();
        }
    }
}

impl<T> OneReceiver<T> {
    /// Block until the value arrives; `None` if the sender dropped first
    /// (the request was dropped unanswered because the server thread
    /// exited).
    pub fn recv(self) -> Option<T> {
        let mut slot = self.inner.slot.lock();
        loop {
            match std::mem::replace(&mut *slot, OneshotSlot::Empty) {
                OneshotSlot::Full(v) => return Some(v),
                OneshotSlot::Closed => return None,
                OneshotSlot::Empty => slot = self.inner.cv.wait(slot),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn mpsc_delivers_in_order_across_senders() {
        let (tx, rx) = mpsc::<u32>();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        tx.send(3).unwrap();
        // A deadline of "now" returns at once once the queue is empty.
        let got: Vec<u32> = std::iter::from_fn(|| rx.recv_until(Some(Instant::now()))).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn mpsc_cross_thread_send_wakes_pending_receiver() {
        let (tx, rx) = mpsc::<u32>();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            tx.send(7).unwrap();
        });
        // No deadline: only the send can end this wait.
        let got = rx.recv_until(None);
        t.join().unwrap();
        assert_eq!(got, Some(7));
    }

    #[test]
    fn mpsc_receiver_drop_fails_sends_and_closes_queued_reply_slots() {
        let (tx, rx) = mpsc::<OneSender<u32>>();
        let (queued, reply) = oneshot::<u32>();
        assert!(tx.send(queued).is_ok());
        drop(rx);
        assert_eq!(reply.recv(), None, "a queued reply slot closes with the receiver");
        let (late, late_reply) = oneshot::<u32>();
        let returned = tx.send(late).expect_err("send after receiver drop must fail");
        drop(returned);
        assert_eq!(late_reply.recv(), None);
    }

    #[test]
    fn oneshot_roundtrip_and_drop_closes() {
        let (tx, rx) = oneshot::<u32>();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(42);
        });
        assert_eq!(rx.recv(), Some(42));
        t.join().unwrap();

        let (tx, rx) = oneshot::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), None);
    }
}
