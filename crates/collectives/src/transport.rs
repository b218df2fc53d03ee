//! The point-to-point substrate under the ring collectives.
//!
//! Every collective in this crate is written once against [`Transport`]:
//! a rank's identity (`rank`/`world_size`), a unidirectional byte-frame
//! channel to the *next* rank in the ring, a matching receive side fed by
//! the *previous* rank, and wire-byte accounting. Two backends ship
//! in-tree:
//!
//! - [`InProcessTransport`] — `std::sync::mpsc` channels between OS threads
//!   of one process (the original backend, still the default);
//! - [`crate::tcp::TcpTransport`] — real localhost TCP sockets with
//!   length-prefixed frames and per-receive deadlines, built via a
//!   rendezvous listener (see [`crate::tcp`]).
//!
//! Frames are opaque byte strings at this layer; the typed layer above
//! ([`crate::Communicator`]) encodes gradients as little-endian `f32`s and
//! metric gathers as little-endian `f64`s, so a value crosses either
//! backend bit-for-bit — the property the transport-equivalence tests pin
//! down.
//!
//! Both directions work on a `Vec<u8>` the caller keeps, so a steady-state
//! exchange allocates no frame. Over TCP the same buffer is written out
//! and read into. In process a send *moves* the allocation into the
//! channel and the receive hands over the one that arrived, so the caller
//! encodes its next frame into its predecessor's last: buffers circulate
//! round the ring with the data.

use crate::resilience::CommError;
use std::cell::Cell;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Point-to-point ring transport: send to the next rank, receive from the
/// previous one.
///
/// Implementations are owned by exactly one rank thread (`Send`, not
/// necessarily `Sync`); interior mutability covers the byte counters and
/// any socket state.
pub trait Transport: Send + fmt::Debug {
    /// This rank's id, `0..world_size`.
    fn rank(&self) -> usize;

    /// Number of ranks in the group.
    fn world_size(&self) -> usize;

    /// Send the bytes of `frame` to the next rank in the ring. The backend
    /// may keep the allocation: afterwards `frame`'s contents are
    /// unspecified, and the caller overwrites it before reading it.
    ///
    /// # Errors
    ///
    /// [`CommError::Dropped`] (or [`CommError::Io`]) when the peer is gone.
    fn send(&self, frame: &mut Vec<u8>) -> Result<(), CommError>;

    /// Replace `frame` with the next frame from the previous rank, waiting
    /// at most `deadline` for it (`None` = without limit).
    ///
    /// # Errors
    ///
    /// [`CommError::Timeout`] when no frame arrives within `deadline`;
    /// [`CommError::Dropped`] / [`CommError::Io`] when the peer is gone.
    fn recv(&self, frame: &mut Vec<u8>, deadline: Option<Duration>) -> Result<(), CommError>;

    /// Cumulative bytes this rank has put on the wire (frame payloads plus
    /// any backend framing overhead, e.g. TCP length prefixes).
    fn bytes_sent(&self) -> u64;

    /// Cumulative bytes received from the wire.
    fn bytes_received(&self) -> u64;
}

/// Which transport backs a [`crate::CommGroup`]; the trainer builders
/// default to [`TransportKind::InProcess`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// `std::sync::mpsc` channels between threads of this process.
    #[default]
    InProcess,
    /// Localhost TCP sockets, coordinated through a rendezvous listener.
    Tcp {
        /// Address the rendezvous listener binds (`127.0.0.1:0` picks an
        /// ephemeral port).
        rendezvous: String,
    },
}

impl TransportKind {
    /// TCP over an ephemeral localhost rendezvous port.
    pub fn tcp() -> Self {
        TransportKind::Tcp { rendezvous: "127.0.0.1:0".to_string() }
    }

    /// A short stable label (`inprocess` / `tcp`), e.g. for telemetry tags
    /// and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::InProcess => "inprocess",
            TransportKind::Tcp { .. } => "tcp",
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportKind::InProcess => write!(f, "inprocess"),
            TransportKind::Tcp { rendezvous } => write!(f, "tcp:{rendezvous}"),
        }
    }
}

/// The original backend: unbounded `std::sync::mpsc` channels between the
/// threads of one process.
pub struct InProcessTransport {
    rank: usize,
    world: usize,
    send_next: Sender<Vec<u8>>,
    recv_prev: Receiver<Vec<u8>>,
    sent: Cell<u64>,
    received: Cell<u64>,
}

impl InProcessTransport {
    /// Build `n` ring-connected endpoints (index == rank).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn ring(n: usize) -> Vec<InProcessTransport> {
        assert!(n > 0, "transport ring must have at least one rank");
        // Channel i carries frames from rank i to rank (i+1) % n.
        let mut senders: Vec<Option<Sender<Vec<u8>>>> = Vec::with_capacity(n);
        let mut receivers: Vec<Option<Receiver<Vec<u8>>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(Some(tx));
            receivers.push(Some(rx));
        }
        (0..n)
            .map(|rank| InProcessTransport {
                rank,
                world: n,
                send_next: senders[rank].take().expect("sender taken once"),
                recv_prev: receivers[(rank + n - 1) % n].take().expect("receiver taken once"),
                sent: Cell::new(0),
                received: Cell::new(0),
            })
            .collect()
    }
}

impl fmt::Debug for InProcessTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InProcessTransport(rank {}/{})", self.rank, self.world)
    }
}

impl Transport for InProcessTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn send(&self, frame: &mut Vec<u8>) -> Result<(), CommError> {
        self.sent.set(self.sent.get() + frame.len() as u64);
        self.send_next
            .send(std::mem::take(frame))
            .map_err(|_| CommError::Dropped { rank: self.rank })
    }

    fn recv(&self, frame: &mut Vec<u8>, deadline: Option<Duration>) -> Result<(), CommError> {
        *frame = match deadline {
            None => self.recv_prev.recv().map_err(|_| CommError::Dropped { rank: self.rank })?,
            Some(timeout) => self.recv_prev.recv_timeout(timeout).map_err(|e| match e {
                RecvTimeoutError::Timeout => CommError::Timeout {
                    rank: self.rank,
                    waited_ms: timeout.as_millis() as u64,
                },
                RecvTimeoutError::Disconnected => CommError::Dropped { rank: self.rank },
            })?,
        };
        self.received.set(self.received.get() + frame.len() as u64);
        Ok(())
    }

    fn bytes_sent(&self) -> u64 {
        self.sent.get()
    }

    fn bytes_received(&self) -> u64 {
        self.received.get()
    }
}

/// Encode values as little-endian `f64` bytes (the metric-gather format).
pub(crate) fn encode_f64(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a little-endian `f64` frame.
pub(crate) fn decode_f64(frame: &[u8]) -> Result<Vec<f64>, String> {
    if !frame.len().is_multiple_of(8) {
        return Err(format!("frame of {} bytes is not a whole number of f64s", frame.len()));
    }
    Ok(frame
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_codec_round_trips_bitwise() {
        let values = vec![0.0f64, -2.75, 1e-300, 7.0];
        let decoded = decode_f64(&encode_f64(&values)).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn misaligned_frames_are_rejected() {
        assert!(decode_f64(&[0u8; 12]).is_err());
    }

    #[test]
    fn transport_kind_displays() {
        assert_eq!(TransportKind::tcp().to_string(), "tcp:127.0.0.1:0");
        assert_eq!(TransportKind::InProcess.to_string(), "inprocess");
        assert_eq!(TransportKind::InProcess.label(), "inprocess");
    }

    #[test]
    fn in_process_ring_counts_bytes() {
        let mut ring = InProcessTransport::ring(2);
        let b = ring.pop().unwrap();
        let a = ring.pop().unwrap();
        let mut frame = vec![1, 2, 3];
        let sent_from = frame.as_ptr();
        a.send(&mut frame).unwrap();
        b.send(&mut vec![9]).unwrap();
        b.recv(&mut frame, None).unwrap();
        assert_eq!(frame, vec![1, 2, 3]);
        assert_eq!(frame.as_ptr(), sent_from, "the allocation itself crosses, not a copy of it");
        a.recv(&mut frame, Some(Duration::from_millis(100))).unwrap();
        assert_eq!(frame, vec![9]);
        assert_eq!(a.bytes_sent(), 3);
        assert_eq!(b.bytes_received(), 3);
        assert_eq!(b.bytes_sent(), 1);
        assert_eq!(a.bytes_received(), 1);
    }

    #[test]
    fn in_process_timeout_is_typed() {
        let mut ring = InProcessTransport::ring(2);
        let _b = ring.pop().unwrap();
        let a = ring.pop().unwrap();
        let mut frame = vec![7];
        let err = a.recv(&mut frame, Some(Duration::from_millis(10))).unwrap_err();
        assert!(matches!(err, CommError::Timeout { rank: 0, waited_ms: 10 }));
        assert_eq!(frame, vec![7], "a receive that fails leaves the caller's buffer alone");
    }
}
