//! Socket plumbing for one node: connections that are read by a thread
//! of their own, and a listener that is accepted from by a thread of its
//! own, all waking one channel.
//!
//! Standard library only — no async runtime, no `mio`, no FFI `poll`. The
//! node's protocol state lives on one thread, which must never sit in a
//! socket call, yet must learn of bytes the moment they arrive. So the
//! blocking calls are moved off it:
//!
//! - every [`Conn`] owns a small-stack **reader thread** in a blocking
//!   `read()`, which posts what it reads into the connection's bounded
//!   inbox and then a [`Wake::Readable`] onto the node's channel;
//! - an [`Acceptor`] thread sits in `accept()` and hands each stream to
//!   its owner (the node posts [`Wake::Accepted`], the metrics endpoint
//!   reads the request head and posts [`Wake::Scrape`]).
//!
//! [`Conn::queue`] / [`Conn::flush`] / [`Conn::poll_read`] keep the
//! contract a single polling thread can rely on: they return what is
//! available now. `poll_read` drains the inbox, never the socket; `flush`
//! hands the kernel the whole buffer, and a peer that has stopped reading
//! for [`WRITE_WAIT`] costs that one connection (closed, counted in
//! [`IoCounters::write_stalls`]), never a stalled caller. A `Conn` built
//! without a waker ([`dial`], [`accept_ready`]) works the same way for a
//! caller that polls it.
//!
//! **Threads and memory are bounded by live connections.** Dropping a
//! `Conn` shuts the socket down (which is what unblocks its reader) and
//! joins the reader; dropping an `Acceptor` wakes it with a connection to
//! itself, joins it and so closes the listener. A connection buffers at
//! most [`INBOX_CHUNKS`] reads of [`READ_CHUNK`] bytes ahead of its
//! owner — a full inbox blocks the reader, which is TCP back-pressure on
//! the peer. A node holds one outbound connection per exchange in flight
//! and, because the runtime closes any accepted connection that has not
//! produced a complete request within one shuffle timeout, at most (the
//! connections accepted during one shuffle timeout) + (one per exchange
//! its peers have in flight towards it) inbound ones: with `n` honest
//! peers and a timeout of `T` periods that is `O(n · T)` connections and
//! as many reader threads, plus one acceptor (two with a metrics
//! endpoint).

use crate::control::ScrapeRequest;
use crate::frame::FrameDecoder;
use crate::wire::{decode_msg, encode_msg, WireMsg};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long one `write` may wait for the peer to make room before the
/// connection is given up.
pub const WRITE_WAIT: Duration = Duration::from_millis(10);

/// How long [`dial`] waits for the peer to accept.
const DIAL_WAIT: Duration = Duration::from_secs(1);

/// Bytes a reader thread asks the socket for at a time.
pub const READ_CHUNK: usize = 4096;

/// Reads a connection buffers ahead of its owner before its reader
/// blocks.
pub const INBOX_CHUNKS: usize = 16;

/// Stack of a helper thread: it holds one [`READ_CHUNK`] buffer and calls
/// nothing deep.
const HELPER_STACK: usize = 64 * 1024;

/// What wakes a node loop out of its one blocking receive.
pub enum Wake {
    /// The node's [`Acceptor`] took a connection off the listener.
    Accepted(TcpStream),
    /// The connection the owner numbered so has bytes, or its end of
    /// stream, in its inbox.
    Readable(u64),
    /// The metrics endpoint read a complete request head.
    Scrape(ScrapeRequest),
}

/// A connection's number in its owner's table, and the channel that
/// learns the connection became readable.
pub type Waker = (u64, Sender<Wake>);

/// The reader side of a [`Conn`]: the inbox its thread fills and the
/// thread itself.
struct Reader {
    /// Chunks in arrival order; an empty chunk (or a hung-up sender) is
    /// the end of the stream.
    inbox: Receiver<Vec<u8>>,
    thread: JoinHandle<()>,
}

/// Body of a reader thread: blocking reads into the inbox until the
/// stream ends (peer closed, error, or the owner shut the socket down) or
/// the owner hung up.
fn read_loop(mut stream: TcpStream, inbox: SyncSender<Vec<u8>>, waker: Option<Waker>) {
    let mut buf = [0u8; READ_CHUNK];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => 0,
        };
        // A send fails only once the owner dropped the connection, and
        // then nobody is left to wake.
        if inbox.send(buf[..n].to_vec()).is_err() {
            return;
        }
        if let Some((id, wake)) = &waker {
            let _ = wake.send(Wake::Readable(*id));
        }
        if n == 0 {
            return;
        }
    }
}

/// One TCP connection carrying framed [`WireMsg`]s.
pub struct Conn {
    stream: TcpStream,
    /// `Some` until drop, which must hang up the inbox before it joins.
    reader: Option<Reader>,
    decoder: FrameDecoder,
    out: Vec<u8>,
    /// Peer node id, learned from its `Hello` (inbound) or known at dial
    /// time (outbound).
    pub peer: Option<u32>,
    /// Whether this end accepted the connection (`true`) rather than
    /// dialed it. Fixed at construction; telemetry labels close events
    /// with it.
    pub inbound: bool,
    /// Set once the connection is finished (EOF, I/O error, write stall,
    /// or framing violation); the owner drops it.
    pub closed: bool,
    /// Message-level decode errors (payload was a complete frame but not
    /// a valid [`WireMsg`]). Recoverable: the frame is skipped and the
    /// connection keeps running.
    pub decode_errors: u64,
    /// Frame-level violations (oversize declaration). Fatal: the decoder
    /// is poisoned, the stream cannot be resynchronised, and the
    /// connection is closed. Kept separate from [`Conn::decode_errors`]
    /// so metrics do not conflate a dead connection with a skipped
    /// message.
    pub frame_errors: u64,
    /// Total bytes read from the socket.
    pub bytes_in: u64,
    /// Total bytes handed to the socket.
    pub bytes_out: u64,
    /// Complete frames decoded (valid or not at the message level).
    pub frames_in: u64,
    /// Frames queued for transmission.
    pub frames_out: u64,
    /// Writes the kernel would not take within [`WRITE_WAIT`] (0 or 1:
    /// the first closes the connection).
    pub write_stalls: u64,
    /// Snapshot at the last [`Conn::take_io_deltas`] call.
    reported: IoCounters,
}

/// Monotone I/O counters of one connection, also used as a delta between
/// two snapshots.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoCounters {
    /// Bytes read from the socket.
    pub bytes_in: u64,
    /// Bytes accepted by the socket.
    pub bytes_out: u64,
    /// Complete frames decoded.
    pub frames_in: u64,
    /// Frames queued for transmission.
    pub frames_out: u64,
    /// Message-level (recoverable) decode errors.
    pub decode_errors: u64,
    /// Frame-level (fatal) framing violations.
    pub frame_errors: u64,
    /// Connections closed because the peer stopped taking bytes.
    pub write_stalls: u64,
}

impl IoCounters {
    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == IoCounters::default()
    }
}

impl Conn {
    /// Wraps an accepted or dialed stream and starts its reader thread,
    /// which posts to `waker` (if any) whenever the inbox gains a chunk.
    /// The socket is blocking with a write timeout of [`WRITE_WAIT`];
    /// `TCP_NODELAY` keeps the request/response round trip from waiting
    /// on Nagle's algorithm. An accepted stream has no known peer yet
    /// (`peer = None`), which is also what marks it inbound. Fails when
    /// the process is out of descriptors or threads.
    pub fn new(
        stream: TcpStream,
        peer: Option<u32>,
        waker: Option<Waker>,
    ) -> std::io::Result<Self> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_WAIT))?;
        let read_half = stream.try_clone()?;
        let (tx, inbox) = mpsc::sync_channel(INBOX_CHUNKS);
        let thread = std::thread::Builder::new()
            .name("veil-conn".into())
            .stack_size(HELPER_STACK)
            .spawn(move || read_loop(read_half, tx, waker))?;
        Ok(Self {
            stream,
            reader: Some(Reader { inbox, thread }),
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            inbound: peer.is_none(),
            peer,
            closed: false,
            decode_errors: 0,
            frame_errors: 0,
            bytes_in: 0,
            bytes_out: 0,
            frames_in: 0,
            frames_out: 0,
            write_stalls: 0,
            reported: IoCounters::default(),
        })
    }

    /// Current cumulative I/O counters.
    pub fn io_counters(&self) -> IoCounters {
        IoCounters {
            bytes_in: self.bytes_in,
            bytes_out: self.bytes_out,
            frames_in: self.frames_in,
            frames_out: self.frames_out,
            decode_errors: self.decode_errors,
            frame_errors: self.frame_errors,
            write_stalls: self.write_stalls,
        }
    }

    /// Counter increments since the previous call (all zeros at first if
    /// nothing happened). Telemetry drains these each time the owner
    /// has touched the connection, so a registry stays current without
    /// double counting; the cumulative counters themselves are untouched.
    pub fn take_io_deltas(&mut self) -> IoCounters {
        let cur = self.io_counters();
        let prev = self.reported;
        self.reported = cur;
        IoCounters {
            bytes_in: cur.bytes_in - prev.bytes_in,
            bytes_out: cur.bytes_out - prev.bytes_out,
            frames_in: cur.frames_in - prev.frames_in,
            frames_out: cur.frames_out - prev.frames_out,
            decode_errors: cur.decode_errors - prev.decode_errors,
            frame_errors: cur.frame_errors - prev.frame_errors,
            write_stalls: cur.write_stalls - prev.write_stalls,
        }
    }

    /// Queues a message for transmission; bytes leave on later
    /// [`Conn::flush`] calls.
    pub fn queue(&mut self, msg: &WireMsg) {
        self.frames_out += 1;
        self.out.extend_from_slice(&encode_msg(msg));
    }

    /// Hands the output buffer to the kernel. Offers are kilobytes against
    /// send buffers of tens, so this returns at once; a peer that stopped
    /// reading makes it wait [`WRITE_WAIT`] once, and then the connection
    /// is closed and counted rather than waited on again.
    pub fn flush(&mut self) {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => {
                    self.closed = true;
                    return;
                }
                Ok(n) => {
                    self.bytes_out += n as u64;
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    // How an expired send timeout reads on Unix / Windows.
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                        self.write_stalls += 1;
                    }
                    self.closed = true;
                    return;
                }
            }
        }
    }

    /// Whether queued bytes are still waiting to be written.
    pub fn has_pending_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// Bytes queued but not yet accepted by the socket (send-queue depth).
    pub fn pending_output_bytes(&self) -> u64 {
        self.out.len() as u64
    }

    /// Takes whatever the reader thread has put in the inbox and decodes
    /// complete messages. Malformed payloads are counted
    /// ([`Conn::decode_errors`]) and skipped; framing violations are
    /// counted separately ([`Conn::frame_errors`]) and close the
    /// connection (the stream cannot be resynchronised).
    pub fn poll_read(&mut self) -> Vec<WireMsg> {
        while let Some(reader) = &self.reader {
            match reader.inbox.try_recv() {
                Ok(bytes) if !bytes.is_empty() => {
                    self.bytes_in += bytes.len() as u64;
                    self.decoder.push(&bytes);
                }
                Ok(_) | Err(TryRecvError::Disconnected) => {
                    self.closed = true;
                    break;
                }
                Err(TryRecvError::Empty) => break,
            }
        }
        let mut msgs = Vec::new();
        loop {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => {
                    self.frames_in += 1;
                    match decode_msg(&payload) {
                        Ok(msg) => msgs.push(msg),
                        Err(_) => self.decode_errors += 1,
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.frame_errors += 1;
                    self.closed = true;
                    break;
                }
            }
        }
        msgs
    }
}

impl Drop for Conn {
    /// Ends the reader thread and waits for it: hanging up the inbox
    /// releases a reader blocked on a full one, the shutdown releases one
    /// blocked in `read()`.
    fn drop(&mut self) {
        if let Some(Reader { inbox, thread }) = self.reader.take() {
            drop(inbox);
            let _ = self.stream.shutdown(Shutdown::Both);
            let _ = thread.join();
        }
    }
}

/// Binds the node's listener, retrying briefly: children of one fleet
/// start concurrently and the port may still be in `TIME_WAIT` from a
/// previous run.
pub fn bind_listener(addr: SocketAddr) -> std::io::Result<TcpListener> {
    let mut last_err = None;
    for _ in 0..40 {
        match TcpListener::bind(addr) {
            Ok(l) => {
                l.set_nonblocking(true)?;
                return Ok(l);
            }
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
    Err(last_err.unwrap_or_else(|| ErrorKind::AddrInUse.into()))
}

/// Accepts every connection currently queued on the listener, which must
/// be non-blocking as [`bind_listener`] returns it.
pub fn accept_ready(listener: &TcpListener) -> Vec<Conn> {
    let mut conns = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Ok(conn) = Conn::new(stream, None, None) {
                    conns.push(conn);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
    conns
}

/// Dials a peer, for a caller that polls the connection itself. The
/// connect blocks (instant on localhost) for at most a second.
pub fn dial(addr: SocketAddr, peer: u32) -> std::io::Result<Conn> {
    dial_within(addr, peer, DIAL_WAIT, None)
}

/// Dials a peer, waiting at most `wait` for it to accept: a dead host
/// fails the dial like a refusing one, only later.
pub fn dial_within(
    addr: SocketAddr,
    peer: u32,
    wait: Duration,
    waker: Option<Waker>,
) -> std::io::Result<Conn> {
    let stream = TcpStream::connect_timeout(&addr, wait)?;
    Conn::new(stream, Some(peer), waker)
}

/// A listener with a thread of its own blocking in `accept()`.
pub struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// `Some` until drop joins it.
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Moves `listener` to a new thread that hands every accepted stream
    /// to `deliver`. The thread ends — closing the listener — when the
    /// `Acceptor` is dropped, or when `accept()` fails for a reason other
    /// than the peer having already gone (out of descriptors, say): the
    /// node then refuses connections rather than spinning.
    pub fn spawn(
        listener: TcpListener,
        mut deliver: impl FnMut(TcpStream) + Send + 'static,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(false)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let thread = std::thread::Builder::new()
            .name("veil-accept".into())
            .stack_size(HELPER_STACK)
            .spawn(move || loop {
                let accepted = listener.accept();
                if stopped.load(Ordering::SeqCst) {
                    return;
                }
                match accepted {
                    Ok((stream, _)) => deliver(stream),
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                        ) => {}
                    Err(e) => {
                        eprintln!("listener {addr}: accept failed, no longer listening: {e}");
                        return;
                    }
                }
            })?;
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }
}

impl Drop for Acceptor {
    /// Stops the thread and waits for it. `accept()` takes no timeout, so
    /// the wake is a connection to the listener itself after the flag is
    /// up; should the dial fail while the thread still sits in `accept()`
    /// (no ephemeral port left), it is tried again.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            while !thread.is_finished()
                && TcpStream::connect_timeout(&self.addr, DIAL_WAIT).is_err()
            {
                std::thread::yield_now();
            }
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::wire::{hello, WireMsg};

    /// A raw blocking client stream paired with an accepted [`Conn`],
    /// over a real loopback socket.
    fn socket_pair() -> (TcpStream, Conn) {
        let listener =
            bind_listener("127.0.0.1:0".parse().unwrap()).expect("bind an ephemeral port");
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).expect("dial loopback");
        let mut server = None;
        for _ in 0..200 {
            server = accept_ready(&listener).into_iter().next();
            if server.is_some() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        (client, server.expect("accept the dialed connection"))
    }

    /// Polls `conn` until `done` says the wanted state arrived.
    fn poll_until(conn: &mut Conn, done: impl Fn(&Conn, &[WireMsg]) -> bool) -> Vec<WireMsg> {
        let mut got = Vec::new();
        for _ in 0..200 {
            got.extend(conn.poll_read());
            if done(conn, &got) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        got
    }

    #[test]
    fn partial_frame_across_real_socket_reads_waits_then_decodes() {
        let (mut client, mut server) = socket_pair();
        let frame = encode_msg(&hello(7, 2));
        // First half only: the decoder must buffer and report nothing.
        let split = frame.len() / 2;
        client.write_all(&frame[..split]).unwrap();
        client.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let early = server.poll_read();
        assert!(early.is_empty(), "half a frame must not decode");
        assert_eq!(server.frames_in, 0);
        assert!(server.bytes_in > 0, "the partial bytes were still counted");
        // Second half completes the frame.
        client.write_all(&frame[split..]).unwrap();
        client.flush().unwrap();
        let got = poll_until(&mut server, |_, msgs| !msgs.is_empty());
        assert_eq!(got, vec![hello(7, 2)]);
        assert_eq!(server.frames_in, 1);
        assert_eq!(server.bytes_in, frame.len() as u64);
        assert_eq!(server.decode_errors, 0);
        assert_eq!(server.frame_errors, 0);
        assert!(!server.closed);
    }

    #[test]
    fn oversize_prefix_over_real_socket_poisons_and_closes() {
        let (mut client, mut server) = socket_pair();
        client.write_all(&u32::MAX.to_be_bytes()).unwrap();
        client.flush().unwrap();
        poll_until(&mut server, |c, _| c.closed);
        assert!(server.closed, "a poisoned stream closes the connection");
        assert_eq!(server.frame_errors, 1, "poisoning is a frame error");
        assert_eq!(
            server.decode_errors, 0,
            "poisoning must not count as a message-level decode error"
        );
    }

    #[test]
    fn malformed_payload_is_skipped_without_killing_the_connection() {
        let (mut client, mut server) = socket_pair();
        client.write_all(&encode_frame(b"not json")).unwrap();
        client.write_all(&encode_msg(&hello(7, 2))).unwrap();
        client.flush().unwrap();
        let got = poll_until(&mut server, |_, msgs| !msgs.is_empty());
        assert_eq!(got, vec![hello(7, 2)], "the valid frame still decodes");
        assert_eq!(server.decode_errors, 1, "the bad payload was counted");
        assert_eq!(server.frame_errors, 0);
        assert_eq!(server.frames_in, 2, "both frames were complete");
        assert!(!server.closed, "a message-level error is recoverable");
    }

    /// A peer that accepts and then never reads fills the socket buffers;
    /// the flush that finds them full waits [`WRITE_WAIT`] once, and the
    /// price is the connection, not the caller's thread.
    #[test]
    fn peer_that_never_reads_costs_the_connection_not_the_caller() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let mut conn = dial(listener.local_addr().unwrap(), 1).expect("dial loopback");
        let (_held_unread, _) = listener.accept().expect("accept the dialed connection");
        let mut svc = veil_core::pseudonym::PseudonymService::new(1);
        let big = WireMsg::ShuffleRequest {
            exchange: 1,
            from: 0,
            offer: (0..2000)
                .map(|owner| svc.mint(owner, veil_sim::SimTime::ZERO, None))
                .collect(),
            trusted_link: false,
            attempt: 0,
        };
        // Far more than loopback's send and receive buffers hold.
        for _ in 0..2000 {
            conn.queue(&big);
            conn.flush();
            if conn.closed {
                break;
            }
        }
        assert!(conn.closed, "the stalled connection was given up");
        assert_eq!(conn.write_stalls, 1);
        assert!(conn.has_pending_output(), "what the peer never took");
        assert_eq!(conn.take_io_deltas().write_stalls, 1);
    }

    #[test]
    fn loopback_round_trip_through_nonblocking_conns() {
        let listener =
            bind_listener("127.0.0.1:0".parse().unwrap()).expect("bind an ephemeral port");
        let addr = listener.local_addr().unwrap();
        let mut client = dial(addr, 1).expect("dial loopback");
        client.queue(&hello(5, 0));
        client.queue(&WireMsg::ShuffleRequest {
            exchange: 1,
            from: 0,
            offer: vec![],
            trusted_link: false,
            attempt: 0,
        });

        let mut server: Option<Conn> = None;
        let mut got: Vec<WireMsg> = Vec::new();
        for _ in 0..200 {
            client.flush();
            if server.is_none() {
                server = accept_ready(&listener).into_iter().next();
            }
            if let Some(s) = server.as_mut() {
                got.extend(s.poll_read());
            }
            if got.len() >= 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(got.len(), 2, "both frames arrive");
        assert_eq!(got[0], hello(5, 0));
        let server = server.unwrap();
        assert_eq!(server.decode_errors, 0);
        assert_eq!(server.frame_errors, 0);
        assert!(!client.has_pending_output());
        assert_eq!(client.pending_output_bytes(), 0);
        // I/O accounting: what the dialer sent is what the listener read.
        assert_eq!(client.frames_out, 2);
        assert_eq!(server.frames_in, 2);
        assert_eq!(client.bytes_out, server.bytes_in);
        assert!(!client.inbound, "dialed connections are outbound");
        assert!(server.inbound, "accepted connections are inbound");
    }
}
