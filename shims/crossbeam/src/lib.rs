//! Offline stand-in for `crossbeam`.
//!
//! Provides `crossbeam::channel`'s unbounded MPMC channel subset over
//! `std::sync::mpsc`: the std receiver is single-consumer, so it is shared
//! behind a mutex to give crossbeam's cloneable-`Receiver` semantics.

#![forbid(unsafe_code)]

pub mod channel {
    use std::sync::mpsc;
    use std::sync::{Arc, Mutex, PoisonError};

    pub use std::sync::mpsc::SendError;

    /// Why a `try_recv` returned no message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Why a blocking `recv` failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value)
        }
    }

    pub struct Receiver<T> {
        inner: Arc<Mutex<mpsc::Receiver<T>>>,
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let rx = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            rx.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let rx = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv().map_err(|_| RecvError)
        }

        /// Drain currently available messages without blocking.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }
    }

    /// Iterator over immediately-available messages.
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }

    /// An unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (
            Sender { inner: tx },
            Receiver {
                inner: Arc::new(Mutex::new(rx)),
            },
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_try_recv_round_trip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnected_when_all_senders_drop() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn cloned_receivers_share_the_queue() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            tx.send(7u32).unwrap();
            assert_eq!(rx2.try_recv(), Ok(7));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn try_iter_drains_available_messages() {
            let (tx, rx) = unbounded();
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            let drained: Vec<i32> = rx.try_iter().collect();
            assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        }

        #[test]
        fn senders_work_across_threads() {
            let (tx, rx) = unbounded();
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let tx = tx.clone();
                    std::thread::spawn(move || tx.send(i).unwrap())
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            drop(tx);
            let mut got: Vec<i32> = rx.try_iter().collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3]);
        }
    }
}
