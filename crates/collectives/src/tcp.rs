//! Real-socket ring transport over localhost TCP.
//!
//! Frames are length-prefixed: a little-endian `u32` byte count followed by
//! the payload. Connection setup goes through a [`Rendezvous`] listener so a
//! group can be formed with one address: each rank dials the rendezvous,
//! announces the address of its own data listener, and is told its rank,
//! the world size, and the data address of the *next* rank in the ring. The
//! rendezvous assigns ranks in connection-arrival order, which is all the
//! SPMD contract needs — every rank then runs the same collective schedule.
//!
//! **What bounds the bytes in flight.** A send is a blocking write, and in
//! a ring every rank writes before it reads, so a frame completes only if
//! the kernel's socket buffers can hold it with no reader on the other
//! end. Nothing at this layer enforces that: the bound is the collective's.
//! The ring all-reduce alternates *send one slice, receive one slice* and
//! caps a slice at 1 MiB of payload (`SLICE_BYTES` in `ring.rs`), so each
//! connection carries at most one slice that has not been read — a quarter
//! of what a loopback socket was measured to take, where a whole chunk per
//! frame blocks for good once it passes `tcp_wmem`'s ceiling (4 MiB by
//! default; `crates/collectives/tests/tcp_large.rs`). The metric gather's
//! frames are a few dozen bytes. A top-k frame cannot be sliced (its
//! selection spans the chunk) and still travels whole, 8 bytes per kept
//! entry: that one remains bounded only by the model and the kept share.
//!
//! **Deadlines.** A receive can carry one, implemented with
//! `set_read_timeout` (cached, so a steady stream of receives under one
//! deadline issues no `setsockopt`); a timeout or peer loss surfaces as
//! the same [`CommError`] variants the in-process backend raises. A send
//! has no deadline of its own and needs none: it can no longer wait on a
//! reader that is itself stuck writing, only on one that is slow, and a
//! peer that is gone fails the write. Note that a timeout fired mid-frame
//! leaves the stream desynchronised — like the in-process backend, a
//! group that timed out must be rebuilt, not reused.

use crate::resilience::CommError;
use crate::transport::Transport;
use std::cell::Cell;
use std::fmt;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Refuse frames above this size — a corrupt length prefix would otherwise
/// ask for a multi-gigabyte allocation.
const MAX_FRAME: u32 = 1 << 30;

/// How long connection setup (rendezvous dial, ring accept) may take before
/// the group is declared unformable.
const SETUP_DEADLINE: Duration = Duration::from_secs(10);

fn io_err(rank: usize, context: &str, e: &std::io::Error) -> CommError {
    CommError::Io { rank, detail: format!("{context}: {e}") }
}

/// The group-formation listener: binds an address, hands out ranks, and
/// tells each joiner where its ring successor listens.
pub struct Rendezvous {
    addr: SocketAddr,
    handle: Option<thread::JoinHandle<Result<(), CommError>>>,
    done: Arc<AtomicBool>,
}

impl Rendezvous {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving a
    /// group of `world` ranks in a background thread.
    ///
    /// # Errors
    ///
    /// [`CommError::Io`] if the listener cannot bind.
    pub fn bind(addr: &str, world: usize) -> Result<Rendezvous, CommError> {
        assert!(world > 0, "rendezvous world must be at least one rank");
        let listener = TcpListener::bind(addr).map_err(|e| io_err(0, "rendezvous bind", &e))?;
        let addr = listener.local_addr().map_err(|e| io_err(0, "rendezvous local_addr", &e))?;
        let done = Arc::new(AtomicBool::new(false));
        let done_flag = Arc::clone(&done);
        let handle = thread::spawn(move || {
            let result = serve(&listener, world);
            done_flag.store(true, Ordering::SeqCst);
            result
        });
        Ok(Rendezvous { addr, handle: Some(handle), done })
    }

    /// The bound address joiners should dial (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the group to finish forming.
    ///
    /// # Errors
    ///
    /// Propagates any setup failure the serve thread hit.
    pub fn wait(mut self) -> Result<(), CommError> {
        match self.handle.take() {
            Some(h) => h
                .join()
                .unwrap_or(Err(CommError::Io { rank: 0, detail: "rendezvous thread panicked".into() })),
            None => Ok(()),
        }
    }
}

impl Drop for Rendezvous {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            // Only block if the group already formed; otherwise detach so a
            // failed setup doesn't hang the caller on an accept() nobody
            // will complete.
            if self.done.load(Ordering::SeqCst) {
                let _ = h.join();
            }
        }
    }
}

impl fmt::Debug for Rendezvous {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rendezvous({})", self.addr)
    }
}

/// Accept `world` joiners, then tell each its rank and successor address.
fn serve(listener: &TcpListener, world: usize) -> Result<(), CommError> {
    let mut joiners: Vec<(TcpStream, SocketAddr)> = Vec::with_capacity(world);
    for _ in 0..world {
        let (mut stream, _) = listener.accept().map_err(|e| io_err(0, "rendezvous accept", &e))?;
        stream
            .set_read_timeout(Some(SETUP_DEADLINE))
            .map_err(|e| io_err(0, "rendezvous set timeout", &e))?;
        let mut buf = [0u8; 2];
        stream.read_exact(&mut buf).map_err(|e| io_err(0, "rendezvous read addr len", &e))?;
        let len = usize::from(u16::from_le_bytes(buf));
        let mut addr_bytes = vec![0u8; len];
        stream.read_exact(&mut addr_bytes).map_err(|e| io_err(0, "rendezvous read addr", &e))?;
        let text = String::from_utf8(addr_bytes)
            .map_err(|e| CommError::Io { rank: 0, detail: format!("rendezvous addr not utf-8: {e}") })?;
        let data_addr: SocketAddr = text
            .parse()
            .map_err(|e| CommError::Io { rank: 0, detail: format!("rendezvous bad addr `{text}`: {e}") })?;
        joiners.push((stream, data_addr));
    }
    for rank in 0..world {
        let next_addr = joiners[(rank + 1) % world].1;
        let reply = format!("{rank};{world};{next_addr}");
        let stream = &mut joiners[rank].0;
        let len = u16::try_from(reply.len())
            .map_err(|_| CommError::Io { rank, detail: "rendezvous reply too long".into() })?;
        stream.write_all(&len.to_le_bytes()).map_err(|e| io_err(rank, "rendezvous write len", &e))?;
        stream.write_all(reply.as_bytes()).map_err(|e| io_err(rank, "rendezvous write reply", &e))?;
    }
    Ok(())
}

/// One rank's endpoint of a TCP ring: a stream to the successor and a
/// stream from the predecessor, with wire-byte counters.
pub struct TcpTransport {
    rank: usize,
    world: usize,
    next: TcpStream,
    prev: TcpStream,
    /// The read timeout `prev` currently has.
    read_timeout: Cell<Option<Duration>>,
    sent: Cell<u64>,
    received: Cell<u64>,
}

impl fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TcpTransport(rank {}/{})", self.rank, self.world)
    }
}

impl TcpTransport {
    /// Join the group forming at `rendezvous_addr`; blocks until the full
    /// ring is wired (every rank connected to its successor).
    ///
    /// # Errors
    ///
    /// [`CommError::Io`] on any setup failure (dial, bind, accept,
    /// protocol violation) and [`CommError::Timeout`] if the ring does not
    /// form within the setup deadline.
    pub fn join(rendezvous_addr: &str) -> Result<TcpTransport, CommError> {
        // Bind the data listener first so its address can be announced and
        // the predecessor's connect lands in the backlog even before we
        // start accepting.
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| io_err(0, "data listener bind", &e))?;
        let data_addr = listener.local_addr().map_err(|e| io_err(0, "data local_addr", &e))?;

        let mut control = connect_with_retry(rendezvous_addr, 0)?;
        control
            .set_read_timeout(Some(SETUP_DEADLINE))
            .map_err(|e| io_err(0, "control set timeout", &e))?;
        let announce = data_addr.to_string();
        let len = u16::try_from(announce.len())
            .map_err(|_| CommError::Io { rank: 0, detail: "data addr too long".into() })?;
        control.write_all(&len.to_le_bytes()).map_err(|e| io_err(0, "announce len", &e))?;
        control.write_all(announce.as_bytes()).map_err(|e| io_err(0, "announce addr", &e))?;

        let mut buf = [0u8; 2];
        control.read_exact(&mut buf).map_err(|e| io_err(0, "assignment len", &e))?;
        let mut reply = vec![0u8; usize::from(u16::from_le_bytes(buf))];
        control.read_exact(&mut reply).map_err(|e| io_err(0, "assignment", &e))?;
        let reply = String::from_utf8(reply)
            .map_err(|e| CommError::Io { rank: 0, detail: format!("assignment not utf-8: {e}") })?;
        let mut parts = reply.splitn(3, ';');
        let parse_field = |part: Option<&str>, what: &str| -> Result<String, CommError> {
            part.map(str::to_string).ok_or_else(|| CommError::Io {
                rank: 0,
                detail: format!("assignment `{reply}` missing {what}"),
            })
        };
        let rank: usize = parse_field(parts.next(), "rank")?
            .parse()
            .map_err(|e| CommError::Io { rank: 0, detail: format!("bad rank in `{reply}`: {e}") })?;
        let world: usize = parse_field(parts.next(), "world")?
            .parse()
            .map_err(|e| CommError::Io { rank, detail: format!("bad world in `{reply}`: {e}") })?;
        let next_addr = parse_field(parts.next(), "next addr")?;

        // Wire the ring: dial the successor while accepting the predecessor.
        // TCP's listen backlog makes the ordering safe — the predecessor's
        // SYN queues on our listener even if we dial first.
        let next = if world == 1 {
            // Self-loop: dial our own listener and accept the connection.
            let stream = connect_with_retry(&next_addr, rank)?;
            let (_accepted, _) = listener.accept().map_err(|e| io_err(rank, "self accept", &e))?;
            // Use the dialing end for send and the accepted end for recv so
            // frames round-trip through a real socket even at world 1.
            let prev = _accepted;
            return Self::finish(rank, world, stream, prev);
        } else {
            connect_with_retry(&next_addr, rank)?
        };
        let prev = accept_with_deadline(&listener, rank)?;
        Self::finish(rank, world, next, prev)
    }

    fn finish(
        rank: usize,
        world: usize,
        next: TcpStream,
        prev: TcpStream,
    ) -> Result<TcpTransport, CommError> {
        next.set_nodelay(true).map_err(|e| io_err(rank, "set nodelay", &e))?;
        prev.set_read_timeout(None).map_err(|e| io_err(rank, "clear read timeout", &e))?;
        Ok(TcpTransport {
            rank,
            world,
            next,
            prev,
            read_timeout: Cell::new(None),
            sent: Cell::new(0),
            received: Cell::new(0),
        })
    }

    fn read_frame(&self, frame: &mut Vec<u8>) -> Result<(), CommError> {
        let mut prefix = [0u8; 4];
        (&self.prev).read_exact(&mut prefix).map_err(|e| self.map_recv_err(&e))?;
        let len = u32::from_le_bytes(prefix);
        if len > MAX_FRAME {
            return Err(CommError::Io {
                rank: self.rank,
                detail: format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
            });
        }
        // Only growth is zero-filled; a reused buffer is read straight into.
        frame.resize(len as usize, 0);
        (&self.prev).read_exact(frame).map_err(|e| self.map_recv_err(&e))?;
        self.received.set(self.received.get() + 4 + u64::from(len));
        Ok(())
    }

    fn map_recv_err(&self, e: &std::io::Error) -> CommError {
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                CommError::Timeout { rank: self.rank, waited_ms: 0 }
            }
            ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset | ErrorKind::BrokenPipe
            | ErrorKind::ConnectionAborted => CommError::Dropped { rank: self.rank },
            _ => io_err(self.rank, "recv", e),
        }
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn send(&self, frame: &mut Vec<u8>) -> Result<(), CommError> {
        let len = u32::try_from(frame.len()).map_err(|_| CommError::Io {
            rank: self.rank,
            detail: format!("frame of {} bytes exceeds u32 framing", frame.len()),
        })?;
        if len > MAX_FRAME {
            return Err(CommError::Io {
                rank: self.rank,
                detail: format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
            });
        }
        let map = |e: std::io::Error| match e.kind() {
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
                CommError::Dropped { rank: self.rank }
            }
            _ => io_err(self.rank, "send", &e),
        };
        // Prefix and payload leave in one write (two would be two segments
        // under TCP_NODELAY); the loop finishes what a short write left.
        let prefix = len.to_le_bytes();
        let mut parts = [IoSlice::new(&prefix), IoSlice::new(frame)];
        let mut unsent = &mut parts[..];
        while !unsent.is_empty() {
            match (&self.next).write_vectored(unsent) {
                Ok(0) => return Err(map(ErrorKind::WriteZero.into())),
                Ok(n) => IoSlice::advance_slices(&mut unsent, n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(map(e)),
            }
        }
        self.sent.set(self.sent.get() + 4 + u64::from(len));
        Ok(())
    }

    fn recv(&self, frame: &mut Vec<u8>, deadline: Option<Duration>) -> Result<(), CommError> {
        // A zero Duration means "no timeout" to set_read_timeout; clamp up.
        let timeout = deadline.map(|d| d.max(Duration::from_millis(1)));
        if timeout != self.read_timeout.get() {
            self.prev.set_read_timeout(timeout).map_err(|e| io_err(self.rank, "set read timeout", &e))?;
            self.read_timeout.set(timeout);
        }
        self.read_frame(frame).map_err(|e| match (e, deadline) {
            (CommError::Timeout { rank, .. }, Some(d)) => CommError::Timeout { rank, waited_ms: d.as_millis() as u64 },
            (other, _) => other,
        })
    }

    fn bytes_sent(&self) -> u64 {
        self.sent.get()
    }

    fn bytes_received(&self) -> u64 {
        self.received.get()
    }
}

/// Dial `addr`, retrying while the listener may still be binding.
fn connect_with_retry(addr: &str, rank: usize) -> Result<TcpStream, CommError> {
    let deadline = Instant::now() + SETUP_DEADLINE;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io_err(rank, &format!("connect {addr}"), &e));
                }
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Accept one connection with an overall deadline (poll in non-blocking
/// mode so a missing peer cannot hang the join forever).
fn accept_with_deadline(listener: &TcpListener, rank: usize) -> Result<TcpStream, CommError> {
    listener.set_nonblocking(true).map_err(|e| io_err(rank, "listener nonblocking", &e))?;
    let deadline = Instant::now() + SETUP_DEADLINE;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).map_err(|e| io_err(rank, "stream blocking", &e))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(CommError::Timeout {
                        rank,
                        waited_ms: SETUP_DEADLINE.as_millis() as u64,
                    });
                }
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(io_err(rank, "ring accept", &e)),
        }
    }
}

/// Form a full TCP ring on localhost: bind an ephemeral rendezvous, join
/// `world` transports from scratch threads, and return them rank-ordered.
///
/// # Errors
///
/// Propagates any join failure.
pub fn tcp_ring(addr: &str, world: usize) -> Result<Vec<TcpTransport>, CommError> {
    let rendezvous = Rendezvous::bind(addr, world)?;
    let target = rendezvous.addr().to_string();
    let joiners: Vec<_> = (0..world)
        .map(|_| {
            let target = target.clone();
            thread::spawn(move || TcpTransport::join(&target))
        })
        .collect();
    let mut transports = Vec::with_capacity(world);
    for joiner in joiners {
        transports.push(joiner.join().map_err(|_| CommError::Io {
            rank: 0,
            detail: "tcp join thread panicked".into(),
        })??);
    }
    rendezvous.wait()?;
    transports.sort_by_key(|t| t.rank());
    Ok(transports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_forms_and_frames_round_trip() {
        let transports = tcp_ring("127.0.0.1:0", 3).expect("ring forms");
        assert_eq!(transports.len(), 3);
        let handles: Vec<_> = transports
            .into_iter()
            .map(|t| {
                thread::spawn(move || {
                    let mut frame = vec![t.rank() as u8; 8];
                    t.send(&mut frame).unwrap();
                    assert_eq!(frame, vec![t.rank() as u8; 8], "a socket send leaves the buffer with its caller");
                    t.recv(&mut frame, None).unwrap();
                    let prev = (t.rank() + t.world_size() - 1) % t.world_size();
                    assert_eq!(frame, vec![prev as u8; 8]);
                    // A shorter frame into the same buffer, then an empty one.
                    t.send(&mut vec![1, 2, 3]).unwrap();
                    t.recv(&mut frame, Some(Duration::from_secs(5))).unwrap();
                    assert_eq!(frame, vec![1, 2, 3]);
                    t.send(&mut Vec::new()).unwrap();
                    t.recv(&mut frame, None).unwrap();
                    assert!(frame.is_empty());
                    // Three payloads of 8, 3 and 0 bytes, each with a 4-byte prefix.
                    assert_eq!(t.bytes_sent(), 12 + 7 + 4);
                    assert_eq!(t.bytes_received(), 12 + 7 + 4);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn recv_deadline_fires_without_a_sender() {
        let transports = tcp_ring("127.0.0.1:0", 2).expect("ring forms");
        let t = &transports[0];
        let err = t.recv(&mut Vec::new(), Some(Duration::from_millis(30))).unwrap_err();
        assert_eq!(err, CommError::Timeout { rank: 0, waited_ms: 30 });
    }

    #[test]
    fn dropped_peer_is_detected() {
        let mut transports = tcp_ring("127.0.0.1:0", 2).expect("ring forms");
        let b = transports.pop().unwrap();
        let a = transports.pop().unwrap();
        drop(b);
        // a's predecessor hung up: recv reports the drop.
        let err = a.recv(&mut Vec::new(), None).unwrap_err();
        assert!(matches!(err, CommError::Dropped { rank: 0 }), "got {err:?}");
    }

    #[test]
    fn world_of_one_loops_back() {
        let transports = tcp_ring("127.0.0.1:0", 1).expect("ring forms");
        let t = &transports[0];
        let mut frame = vec![7, 7];
        t.send(&mut frame).unwrap();
        t.recv(&mut frame, None).unwrap();
        assert_eq!(frame, vec![7, 7]);
    }
}
