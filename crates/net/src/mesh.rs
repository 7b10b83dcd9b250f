//! A channel full mesh (`std::sync::mpsc`) for thread-per-party executions.

use crate::deadline::Deadline;
use std::error::Error;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Error from mesh operations.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum MeshError {
    /// Target party id out of range.
    UnknownParty(usize),
    /// The peer hung up (its handle was dropped).
    Disconnected {
        /// The peer that is gone.
        peer: usize,
    },
    /// No message arrived from the peer before the deadline.
    Timeout {
        /// The peer that stayed silent.
        peer: usize,
    },
    /// A party tried to message itself.
    SelfMessage,
    /// A broadcast could not deliver to every peer; lists every failed
    /// target (each failure is a disconnect — the only way a send to a
    /// valid peer can fail).
    Broadcast {
        /// Peers the message could not be delivered to, ascending.
        disconnected: Vec<usize>,
    },
    /// This party was stopped by an injected fault
    /// ([`FaultyMesh`](crate::FaultyMesh)); it must exit its protocol
    /// thread without further sends.
    Crashed,
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::UnknownParty(p) => write!(f, "unknown party {p}"),
            MeshError::Disconnected { peer } => write!(f, "party {peer} disconnected"),
            MeshError::Timeout { peer } => {
                write!(f, "party {peer} sent nothing before the deadline")
            }
            MeshError::SelfMessage => write!(f, "a party cannot message itself"),
            MeshError::Broadcast { disconnected } => {
                write!(f, "broadcast failed to reach parties {disconnected:?}")
            }
            MeshError::Crashed => write!(f, "this party was crashed by fault injection"),
        }
    }
}

impl Error for MeshError {}

/// One party's endpoint in the mesh.
///
/// Channels model the paper's pairwise secure channels: each ordered pair
/// of parties gets its own FIFO lane, so `recv_from` is deterministic per
/// sender.
///
/// The self-slot is structurally absent: lanes are stored in a dense
/// `n − 1` vector indexed by [`lane`](Self::lane), so "message to self"
/// is unrepresentable rather than a runtime invariant.
#[derive(Debug)]
pub struct PartyHandle<T> {
    id: usize,
    n: usize,
    /// `senders[lane(j)]` sends to party `j` (no self lane).
    senders: Vec<Sender<T>>,
    /// `receivers[lane(j)]` receives from party `j` (no self lane).
    receivers: Vec<Receiver<T>>,
}

impl<T> PartyHandle<T> {
    /// This party's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of parties in the mesh.
    pub fn parties(&self) -> usize {
        self.n
    }

    /// Dense lane index for peer `j` (the self-slot does not exist).
    ///
    /// # Errors
    ///
    /// [`MeshError::SelfMessage`] for `j == id`, [`MeshError::UnknownParty`]
    /// for out-of-range ids.
    fn lane(&self, j: usize) -> Result<usize, MeshError> {
        if j == self.id {
            return Err(MeshError::SelfMessage);
        }
        if j >= self.n {
            return Err(MeshError::UnknownParty(j));
        }
        Ok(if j < self.id { j } else { j - 1 })
    }

    /// Sends `message` to party `to`.
    ///
    /// # Errors
    ///
    /// [`MeshError::SelfMessage`], [`MeshError::UnknownParty`], or
    /// [`MeshError::Disconnected`] if the peer's handle was dropped.
    pub fn send(&self, to: usize, message: T) -> Result<(), MeshError> {
        self.senders[self.lane(to)?]
            .send(message)
            .map_err(|_| MeshError::Disconnected { peer: to })
    }

    /// Blocks until a message from party `from` arrives.
    ///
    /// # Errors
    ///
    /// [`MeshError::SelfMessage`], [`MeshError::UnknownParty`], or
    /// [`MeshError::Disconnected`] if the peer hung up with no queued
    /// messages.
    pub fn recv_from(&self, from: usize) -> Result<T, MeshError> {
        self.receivers[self.lane(from)?]
            .recv()
            .map_err(|_| MeshError::Disconnected { peer: from })
    }

    /// Waits at most `timeout` for a message from party `from`.
    ///
    /// # Errors
    ///
    /// [`MeshError::Timeout`] if nothing arrived in time, otherwise as
    /// [`recv_from`](Self::recv_from).
    pub fn recv_from_timeout(&self, from: usize, timeout: Duration) -> Result<T, MeshError> {
        match self.receivers[self.lane(from)?].recv_timeout(timeout) {
            Ok(v) => Ok(v),
            Err(RecvTimeoutError::Timeout) => Err(MeshError::Timeout { peer: from }),
            Err(RecvTimeoutError::Disconnected) => Err(MeshError::Disconnected { peer: from }),
        }
    }

    /// Waits until `deadline` for a message from party `from`.
    ///
    /// # Errors
    ///
    /// As [`recv_from_timeout`](Self::recv_from_timeout).
    pub fn recv_from_deadline(&self, from: usize, deadline: &Deadline) -> Result<T, MeshError> {
        self.recv_from_timeout(from, deadline.remaining())
    }

    /// Broadcasts clones of `message` to every other party, attempting
    /// delivery to **all** peers even when some fail.
    ///
    /// # Errors
    ///
    /// [`MeshError::Broadcast`] listing every peer the message could not
    /// reach (a partial broadcast would silently deadlock the skipped
    /// peers inside [`gather`](Self::gather)).
    pub fn broadcast(&self, message: &T) -> Result<(), MeshError>
    where
        T: Clone,
    {
        let mut disconnected = Vec::new();
        for to in 0..self.n {
            if to != self.id && self.send(to, message.clone()).is_err() {
                disconnected.push(to);
            }
        }
        if disconnected.is_empty() {
            Ok(())
        } else {
            Err(MeshError::Broadcast { disconnected })
        }
    }

    /// Receives one message from every other party, in party order.
    ///
    /// # Errors
    ///
    /// Propagates the first receive failure.
    pub fn gather(&self) -> Result<Vec<(usize, T)>, MeshError> {
        let mut out = Vec::with_capacity(self.n - 1);
        for from in 0..self.n {
            if from != self.id {
                out.push((from, self.recv_from(from)?));
            }
        }
        Ok(out)
    }
}

/// Constructs a full mesh of `n` parties.
#[derive(Debug)]
pub struct LocalMesh;

impl LocalMesh {
    /// Builds handles for `n` parties; hand one to each thread.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[allow(clippy::new_ret_no_self)] // one handle per party, not a LocalMesh
    pub fn new<T>(n: usize) -> Vec<PartyHandle<T>> {
        assert!(n > 0, "mesh needs at least one party");
        // channel (i, j) carries i → j; build all n·(n−1) lanes, then deal
        // them out with the self-slot structurally absent.
        let mut txs: Vec<Vec<Sender<T>>> = (0..n).map(|_| Vec::with_capacity(n - 1)).collect();
        let mut rxs: Vec<Vec<Receiver<T>>> = (0..n).map(|_| Vec::with_capacity(n - 1)).collect();
        for (i, tx_row) in txs.iter_mut().enumerate() {
            for (j, rx_row) in rxs.iter_mut().enumerate() {
                if i != j {
                    let (tx, rx) = channel();
                    tx_row.push(tx); // tx_row index: lane(j) for sender i
                    rx_row.push(rx); // rx_row index: lane(i) for receiver j
                }
            }
        }
        txs.into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(id, (senders, receivers))| PartyHandle {
                id,
                n,
                senders,
                receivers,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_send_recv() {
        let mut handles = LocalMesh::new::<u32>(3);
        let h2 = handles.pop().unwrap();
        let h1 = handles.pop().unwrap();
        let h0 = handles.pop().unwrap();
        h0.send(1, 42).unwrap();
        h2.send(1, 7).unwrap();
        assert_eq!(h1.recv_from(0).unwrap(), 42);
        assert_eq!(h1.recv_from(2).unwrap(), 7);
    }

    #[test]
    fn per_sender_fifo_ordering() {
        let handles = LocalMesh::new::<u32>(2);
        let (h0, h1) = {
            let mut it = handles.into_iter();
            (it.next().unwrap(), it.next().unwrap())
        };
        for v in 0..10 {
            h0.send(1, v).unwrap();
        }
        for v in 0..10 {
            assert_eq!(h1.recv_from(0).unwrap(), v);
        }
    }

    #[test]
    fn broadcast_and_gather_across_threads() {
        let n = 4;
        let handles = LocalMesh::new::<String>(n);
        let joined: Vec<_> = handles
            .into_iter()
            .map(|h| {
                thread::spawn(move || {
                    h.broadcast(&format!("hello from {}", h.id())).unwrap();
                    let got = h.gather().unwrap();
                    assert_eq!(got.len(), n - 1);
                    for (from, msg) in got {
                        assert_eq!(msg, format!("hello from {from}"));
                    }
                })
            })
            .collect();
        for j in joined {
            j.join().unwrap();
        }
    }

    #[test]
    fn error_cases() {
        let mut handles = LocalMesh::new::<u8>(2);
        let h1 = handles.pop().unwrap();
        let h0 = handles.pop().unwrap();
        assert_eq!(h0.send(0, 1), Err(MeshError::SelfMessage));
        assert_eq!(h0.send(9, 1), Err(MeshError::UnknownParty(9)));
        drop(h1);
        assert_eq!(h0.send(1, 1), Err(MeshError::Disconnected { peer: 1 }));
        assert_eq!(h0.recv_from(1), Err(MeshError::Disconnected { peer: 1 }));
    }

    #[test]
    fn recv_timeout_fires_on_silence_but_not_on_queued_data() {
        let mut handles = LocalMesh::new::<u8>(2);
        let h1 = handles.pop().unwrap();
        let h0 = handles.pop().unwrap();
        assert_eq!(
            h1.recv_from_timeout(0, Duration::from_millis(10)),
            Err(MeshError::Timeout { peer: 0 })
        );
        h0.send(1, 9).unwrap();
        assert_eq!(h1.recv_from_timeout(0, Duration::from_millis(10)), Ok(9));
        // Queued messages survive a sender drop; only then Disconnected.
        h0.send(1, 8).unwrap();
        drop(h0);
        assert_eq!(h1.recv_from_timeout(0, Duration::from_secs(1)), Ok(8));
        assert_eq!(
            h1.recv_from_timeout(0, Duration::from_secs(1)),
            Err(MeshError::Disconnected { peer: 0 })
        );
    }

    #[test]
    fn recv_deadline_is_a_fixed_point_in_time() {
        let mut handles = LocalMesh::new::<u8>(2);
        let _h1 = handles.pop().unwrap();
        let h0 = handles.pop().unwrap();
        let d = Deadline::after(Duration::from_millis(5));
        assert_eq!(
            h0.recv_from_deadline(1, &d),
            Err(MeshError::Timeout { peer: 1 })
        );
        assert!(d.expired());
    }

    #[test]
    fn broadcast_reports_every_failed_target_and_reaches_the_rest() {
        let mut handles = LocalMesh::new::<u8>(4);
        let h3 = handles.pop().unwrap();
        let h2 = handles.pop().unwrap();
        let h1 = handles.pop().unwrap();
        let h0 = handles.pop().unwrap();
        drop(h1);
        drop(h3);
        // Parties 1 and 3 are gone; 2 must still get the message.
        assert_eq!(
            h0.broadcast(&5),
            Err(MeshError::Broadcast {
                disconnected: vec![1, 3]
            })
        );
        assert_eq!(h2.recv_from(0).unwrap(), 5);
    }
}
