//! The one serving loop: a single-threaded **readiness reactor** that every
//! TCP front in this crate runs on.
//!
//! Each listener is paired with a [`Protocol`]; every socket is
//! non-blocking, and one thread multiplexes accepts, reads, request decode,
//! execution (through the protocol — every request is answered on this
//! thread the moment it decodes) and writes across all connections.
//! Thousands of idle clients cost a few hundred bytes of buffer and one
//! `pollfd` each, not a pinned thread, and replies on one connection flow in
//! request order by construction. When `stop` is raised the loop returns
//! within one [`TICK`], dropping every connection — including ones stalled
//! mid-request, which therefore cannot block shutdown.
//!
//! A turn that moved nothing ends blocked in `poll(2)` (`poll.rs`) until a
//! socket is ready or a [`TICK`] passes. Listeners are watched for
//! connections; a connection is watched for input only while [`Conn::read`]
//! would take it and for output only while reply bytes are unflushed. `poll`
//! is level-triggered, so a descriptor left in the set with an event nobody
//! acts on (a back-pressured peer's unread request bytes) would spin the
//! loop; the interest sets are exactly the conditions under which the
//! matching call makes progress. After a wake only the connections that
//! reported an event, or paused decoding for room they now have, are
//! pumped. The tick is for the stop flag, a caller-owned `AtomicBool` nobody
//! can hook; no request waits on it.
//!
//! Backpressure is by unread socket: a connection with more than
//! [`MAX_UNFLUSHED`] reply bytes its peer has not taken is neither read nor
//! decoded until it drains, so a client that pipelines without reading fills
//! its own TCP window instead of this process's memory.

use crate::poll::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::wire::MAX_FRAME_BYTES;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Longest one `poll` blocks: the cadence at which the stop flag is noticed,
/// and how long a listener that hit descriptor exhaustion sits out. On no
/// request's path.
const TICK: Duration = Duration::from_millis(25);
/// Per-read chunk size.
const READ_CHUNK: usize = 16 << 10;
/// Per-connection cap on encoded reply bytes the socket has not accepted:
/// decoding pauses above it, so the buffer holds at most this plus one reply.
const MAX_UNFLUSHED: usize = 1 << 20;

/// What a protocol found at the front of a connection's input buffer.
pub(crate) enum Step {
    /// No complete request yet; read more and retry with the same prefix.
    Incomplete,
    /// One request, `consumed` bytes long, executed and its reply (none for
    /// a no-op, such as a blank RESP line) appended to the output.
    Request {
        consumed: usize,
        /// The stream can no longer be trusted: flush what is owed, then
        /// close.
        close: bool,
    },
}

/// A protocol's progress into the incomplete request at the head of one
/// connection's input, so that the next read resumes where the last one
/// stopped. Only the protocol reads it, and clears it when it takes one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resume {
    /// Bytes of the request already checked.
    pub(crate) offset: usize,
    /// Items (lines, elements) among them.
    pub(crate) items: usize,
}

/// A wire protocol bound to the engine it serves: how one request comes off
/// the byte stream and what answers it.
pub(crate) trait Protocol {
    /// Take one request off the front of `inbuf` and append its reply to
    /// `out`, the connection's output buffer.
    fn step(&self, inbuf: &[u8], resume: &mut Resume, out: &mut Vec<u8>) -> Step;
}

/// One multiplexed connection's state.
struct Conn<'a> {
    stream: TcpStream,
    protocol: &'a dyn Protocol,
    /// Raw bytes read but not yet decoded.
    inbuf: Vec<u8>,
    /// How far the protocol got into the request at the head of `inbuf`.
    resume: Resume,
    /// Encoded bytes not yet accepted by the socket.
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written.
    sent: usize,
    /// Close after flushing what is owed (protocol error path).
    closing: bool,
    /// Peer closed its write side.
    read_closed: bool,
    /// The last decode stopped for want of bytes, not of room.
    starved: bool,
    /// Ready to be dropped.
    dead: bool,
}

impl<'a> Conn<'a> {
    fn new(stream: TcpStream, protocol: &'a dyn Protocol) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            protocol,
            inbuf: Vec::new(),
            resume: Resume::default(),
            outbuf: Vec::new(),
            sent: 0,
            closing: false,
            read_closed: false,
            starved: true,
            dead: false,
        })
    }

    fn unflushed(&self) -> usize {
        self.outbuf.len() - self.sent
    }

    /// Whether the backpressure bound leaves room for one more reply.
    fn has_room(&self) -> bool {
        self.unflushed() <= MAX_UNFLUSHED
    }

    /// Whether [`Conn::read`] would take bytes from the socket: the peer has
    /// not finished sending, and the backpressure cap and the frame-size
    /// ceiling leave somewhere to put them. Doubles as the read interest —
    /// input nobody will read must not be polled for.
    fn wants_read(&self) -> bool {
        !self.read_closed
            && !self.closing
            && self.has_room()
            && self.inbuf.len() < MAX_FRAME_BYTES + 4
    }

    /// The events worth waking for: exactly the ones `read` / `flush` would
    /// make progress on.
    fn interest(&self) -> i16 {
        let read = if self.wants_read() { POLLIN } else { 0 };
        let write = if self.unflushed() > 0 { POLLOUT } else { 0 };
        read | write
    }

    /// Pull what the socket has into `inbuf`, bounded by [`Conn::wants_read`].
    /// Marks the connection dead on hard I/O errors. Returns whether bytes
    /// moved.
    fn read(&mut self) -> bool {
        let mut progress = false;
        while self.wants_read() {
            let start = self.inbuf.len();
            self.inbuf.resize(start + READ_CHUNK, 0);
            let got = self.stream.read(&mut self.inbuf[start..]);
            self.inbuf.truncate(start + *got.as_ref().unwrap_or(&0));
            match got {
                Ok(0) => self.read_closed = true,
                // A short read drained the socket; whatever lands later is
                // a new event (`poll` is level-triggered).
                Ok(n) => {
                    progress = true;
                    if n == READ_CHUNK {
                        continue;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
            break;
        }
        progress
    }

    /// Push `outbuf` until the socket stops taking bytes. Returns whether
    /// bytes moved.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while self.sent < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.sent..]) {
                Ok(0) => {
                    self.dead = true;
                    return progress;
                }
                Ok(n) => {
                    self.sent += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return progress;
                }
            }
        }
        // Drop the written prefix once it is everything — or, for a peer that
        // reads slower than replies are produced and so never lets the buffer
        // run empty, once it outweighs what the cap lets accumulate behind it.
        if self.sent == self.outbuf.len() || self.sent >= MAX_UNFLUSHED {
            self.outbuf.drain(..self.sent);
            self.sent = 0;
        }
        progress
    }

    /// Whether a pump would move something with no event behind it: decoding
    /// last stopped for want of room, and the flush after it made some. The
    /// requests still sitting in `inbuf` are not a socket event, so the loop
    /// has to come back for them on its own.
    fn has_backlog(&self) -> bool {
        !self.starved && !self.closing && self.has_room()
    }

    /// One pass: read what is available (when the socket said there is
    /// something), decode and answer complete requests, write what the
    /// socket takes. Returns whether any byte or request moved.
    fn pump(&mut self, readable: bool) -> bool {
        let mut progress = readable && self.read();
        if self.dead {
            return progress;
        }

        let (mut consumed, protocol) = (0, self.protocol);
        self.starved = false;
        while !self.closing && self.has_room() {
            match protocol.step(&self.inbuf[consumed..], &mut self.resume, &mut self.outbuf) {
                Step::Incomplete => {
                    self.starved = true;
                    break;
                }
                Step::Request { consumed: n, close } => {
                    consumed += n;
                    self.closing |= close;
                    progress = true;
                }
            }
        }
        if consumed > 0 {
            self.inbuf.drain(..consumed);
        }

        progress |= self.flush();
        // Retire once everything owed is flushed after a protocol error, or
        // after a half-closed peer's last complete request.
        let flushed = self.unflushed() == 0;
        if flushed && (self.closing || (self.read_closed && self.starved)) {
            self.dead = true;
        }
        progress
    }
}

/// What a failed `accept` means for the loop.
#[derive(Debug, PartialEq, Eq)]
enum AcceptFailure {
    /// The backlog is empty.
    Drained,
    /// One handshake died before it was accepted, or a signal interrupted
    /// the call: nothing is wrong with the listener — take the next.
    Skip,
    /// This process or the host is out of descriptors or socket memory:
    /// stop polling the listener for a [`TICK`] (the unaccepted backlog
    /// keeps it readable, so a level-triggered `poll` would spin on it).
    Exhausted,
    /// The listener itself is broken.
    Fatal,
}

impl AcceptFailure {
    fn of(e: &io::Error) -> Self {
        use io::ErrorKind as K;
        // The host's / this process's descriptor table is full; neither has
        // an `ErrorKind` of its own.
        const ENFILE: i32 = 23;
        const EMFILE: i32 = 24;
        match e.kind() {
            K::WouldBlock => Self::Drained,
            // accept(2) reports an error already pending on the *new* socket
            // as its own.
            K::Interrupted
            | K::ConnectionAborted
            | K::ConnectionReset
            | K::NetworkDown
            | K::NetworkUnreachable
            | K::HostUnreachable => Self::Skip,
            K::OutOfMemory => Self::Exhausted,
            _ if matches!(e.raw_os_error(), Some(ENFILE | EMFILE)) => Self::Exhausted,
            _ => Self::Fatal,
        }
    }
}

/// Loop accounting for the tests below: what the naps used to hide shows up
/// as a count, not as a stopwatch reading.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    /// Turns taken (each is one `poll`).
    turns: usize,
    /// Connection pumps across those turns.
    pumped: usize,
}

/// The wait → accept → pump → retain loop body and its connection table.
pub(crate) struct Reactor<'a> {
    listeners: &'a [(TcpListener, &'a dyn Protocol)],
    /// Per listener, the instant before which it is left out of the poll set
    /// ([`AcceptFailure::Exhausted`]).
    accept_after: Vec<Instant>,
    conns: Vec<Conn<'a>>,
    /// The poll set, rebuilt every turn: listeners, then connections.
    fds: Vec<PollFd>,
    #[cfg(test)]
    tally: Tally,
}

impl<'a> Reactor<'a> {
    pub(crate) fn new(listeners: &'a [(TcpListener, &'a dyn Protocol)]) -> io::Result<Self> {
        for (listener, _) in listeners {
            listener.set_nonblocking(true)?;
        }
        Ok(Self {
            listeners,
            accept_after: vec![Instant::now(); listeners.len()],
            conns: Vec::new(),
            fds: Vec::new(),
            #[cfg(test)]
            tally: Tally::default(),
        })
    }

    /// One turn: wait up to `timeout` for a descriptor to be ready, drain the
    /// accept backlog of every listener that is, pump the connections that
    /// reported an event or have a backlog, drop the dead. Returns whether
    /// anything moved.
    fn turn(&mut self, timeout: Duration) -> io::Result<bool> {
        let now = Instant::now();
        self.fds.clear();
        for ((listener, _), after) in self.listeners.iter().zip(&self.accept_after) {
            let events = if now >= *after { POLLIN } else { 0 };
            self.fds.push(PollFd::new(listener, events));
        }
        let first_conn = self.fds.len();
        self.fds.extend(
            self.conns
                .iter()
                .map(|c| PollFd::new(&c.stream, c.interest())),
        );
        poll::wait(&mut self.fds, timeout)?;
        #[cfg(test)]
        {
            self.tally.turns += 1;
        }

        let mut progress = false;
        for (i, (listener, protocol)) in self.listeners.iter().enumerate() {
            if self.fds[i].revents() == 0 {
                continue;
            }
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if let Ok(conn) = Conn::new(stream, *protocol) {
                            self.conns.push(conn);
                            progress = true;
                        }
                    }
                    Err(e) => match AcceptFailure::of(&e) {
                        AcceptFailure::Skip => {}
                        AcceptFailure::Drained => break,
                        AcceptFailure::Exhausted => {
                            self.accept_after[i] = Instant::now() + TICK;
                            break;
                        }
                        AcceptFailure::Fatal => return Err(e),
                    },
                }
            }
        }

        for (i, conn) in self.conns.iter_mut().enumerate() {
            // A connection accepted this turn was not in the set; a client
            // usually sends right behind its handshake, so look.
            let revents = self.fds.get(first_conn + i).map_or(POLLIN, PollFd::revents);
            if revents & (POLLERR | POLLHUP | POLLNVAL) != 0 && !conn.wants_read() {
                // The peer is gone for good (reset, or closed both ways) and
                // no read is due that would find out; the condition stays
                // reported whatever the interest set, so leaving the
                // connection in would spin the loop.
                conn.dead = true;
            } else if revents != 0 || conn.has_backlog() {
                progress |= conn.pump(revents & !POLLOUT != 0);
                #[cfg(test)]
                {
                    self.tally.pumped += 1;
                }
            }
        }
        self.conns.retain(|c| !c.dead);
        Ok(progress)
    }

    /// Turn until `stop` is set, blocking in `poll` whenever a turn moved
    /// nothing.
    ///
    /// # Errors
    /// A fatal `accept` or `poll` failure, which also raises `stop` so a
    /// co-running in-process workload winds down instead of serving a
    /// listener-less process forever; per-connection I/O errors only end
    /// that connection, and a handshake that dies before it is accepted only
    /// costs itself.
    pub(crate) fn run(&mut self, stop: &AtomicBool) -> io::Result<()> {
        let mut timeout = Duration::ZERO;
        while !stop.load(Ordering::Relaxed) {
            let progress = self.turn(timeout).inspect_err(|_| {
                stop.store(true, Ordering::Relaxed);
            })?;
            // Something moved: look again without blocking. Otherwise wait
            // for the next event.
            timeout = if progress { Duration::ZERO } else { TICK };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use crate::{
        serve_tcp_with, serve_tenant_tcp, Catalog, ServeOptions, Server, ServerConfig,
        TenantQuotas, TenantRegistry, TenantServeOptions,
    };
    use rambo_core::{Rambo, RamboParams};
    use std::net::SocketAddr;

    /// Newline-terminated requests, each answered by `REPLY` bytes.
    struct Echo;
    const REPLY: usize = 4 << 10;

    impl Protocol for Echo {
        fn step(&self, inbuf: &[u8], _: &mut Resume, out: &mut Vec<u8>) -> Step {
            match inbuf.iter().position(|&b| b == b'\n') {
                None => Step::Incomplete,
                Some(nl) => {
                    out.resize(out.len() + REPLY, b'.');
                    Step::Request {
                        consumed: nl + 1,
                        close: false,
                    }
                }
            }
        }
    }

    fn bind() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    /// `Reactor::run` on this thread for as long as `driver` takes on
    /// another; returns how long that was.
    fn run_during(reactor: &mut Reactor<'_>, driver: impl FnOnce() + Send) -> Duration {
        let stop = AtomicBool::new(false);
        let started = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                driver();
                stop.store(true, Ordering::Relaxed);
            });
            reactor.run(&stop).unwrap();
        });
        started.elapsed()
    }

    /// Let wall time pass on a driver thread: a timed wait on a channel
    /// nobody sends on. (CI fails this crate on any call that puts a thread
    /// to sleep outright, so that none can creep back into the loop.)
    fn pause(time: Duration) {
        let (_silent, never) = std::sync::mpsc::channel::<()>();
        let _ = never.recv_timeout(time);
    }

    /// The turns a loop with nothing to do may take in `elapsed`: its ticks,
    /// plus a few for whatever the test did on purpose.
    fn idle_turns(elapsed: Duration) -> usize {
        8 + (elapsed.as_millis() / TICK.as_millis()) as usize
    }

    /// 32 documents of 50 terms (`d << 16 | t`), one tier.
    fn small_catalog() -> Catalog {
        let mut index = Rambo::new(RamboParams::flat(16, 3, 1 << 12, 2, 7)).unwrap();
        for d in 0..32u64 {
            index
                .insert_document(&format!("doc{d}"), (0..50).map(|t| d << 16 | t))
                .unwrap();
        }
        Catalog::builder().base(&index).halving(0).build().unwrap()
    }

    /// The exact bound behind `wire_fuzz`'s end-to-end slow-reader test,
    /// which can only see it through the kernel's socket buffers.
    #[test]
    fn replies_to_a_peer_that_never_reads_stay_within_the_cap() {
        let (listener, addr) = bind();
        let listeners = [(listener, &Echo as &dyn Protocol)];
        let mut reactor = Reactor::new(&listeners).unwrap();
        // 16 MiB of replies asked for in one burst.
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.write_all(&vec![b'\n'; 4096]).unwrap();
        let (mut unflushed, mut held) = (0, 0);
        for _ in 0..64 {
            reactor.turn(Duration::ZERO).unwrap();
            unflushed = unflushed.max(reactor.conns[0].unflushed());
            held = held.max(reactor.conns[0].outbuf.len());
        }
        assert!(!reactor.conns[0].inbuf.is_empty(), "decoding must pause");
        assert!(
            unflushed > 0 && unflushed <= MAX_UNFLUSHED + REPLY,
            "{unflushed}"
        );
        assert!(
            held <= 2 * MAX_UNFLUSHED + REPLY,
            "written prefix kept: {held}"
        );
    }

    #[test]
    fn an_idle_reactor_turns_only_on_its_ticks() {
        let (listener, addr) = bind();
        let listeners = [(listener, &Echo as &dyn Protocol)];
        let mut reactor = Reactor::new(&listeners).unwrap();
        let elapsed = run_during(&mut reactor, || {
            let mut peer = TcpStream::connect(addr).unwrap();
            peer.write_all(b"\n").unwrap();
            peer.read_exact(&mut [0; REPLY]).unwrap();
            // Served, open, and silent from here on.
            pause(Duration::from_millis(200));
        });
        let turns = reactor.tally.turns;
        assert!(turns <= idle_turns(elapsed), "{turns} turns in {elapsed:?}");
    }

    /// Level-triggered `poll` reports a back-pressured peer's unread request
    /// bytes on every call; they must be out of the interest set while
    /// nothing will read them, and back in once the peer drains.
    #[test]
    fn a_stalled_pipeliner_costs_no_turns_and_is_served_once_it_drains() {
        const ASKED: usize = 4096; // 16 MiB of replies
        let (listener, addr) = bind();
        let listeners = [(listener, &Echo as &dyn Protocol)];
        let mut reactor = Reactor::new(&listeners).unwrap();
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        peer.write_all(&vec![b'\n'; ASKED]).unwrap();
        run_during(&mut reactor, || {
            pause(Duration::from_millis(50));
        });

        // More requests trickle in while the connection is back-pressured.
        // They stay in the socket — readable, with nobody about to read — so
        // none of them may cost a turn.
        const LATE: usize = 20;
        let before = reactor.tally.turns;
        let stalled = run_during(&mut reactor, || {
            for _ in 0..LATE {
                peer.write_all(b"\n").unwrap();
                pause(Duration::from_millis(10));
            }
        });
        let turns = reactor.tally.turns - before;
        assert!(turns <= idle_turns(stalled), "{turns} turns in {stalled:?}");
        let conn = &reactor.conns[0];
        assert!(!conn.inbuf.is_empty() && conn.unflushed() > 0 && !conn.wants_read());

        run_during(&mut reactor, || {
            peer.read_exact(&mut vec![0; (ASKED + LATE) * REPLY])
                .unwrap();
        });
        let conn = &reactor.conns[0];
        assert!(conn.inbuf.is_empty() && conn.unflushed() == 0 && conn.wants_read());
    }

    #[test]
    fn one_request_among_many_idle_connections_pumps_only_its_own() {
        let (listener, addr) = bind();
        let listeners = [(listener, &Echo as &dyn Protocol)];
        let mut reactor = Reactor::new(&listeners).unwrap();
        let mut peers = Vec::new();
        // In batches, so the listen backlog never overflows.
        for batch in 1..=4 {
            peers.extend((0..64).map(|_| TcpStream::connect(addr).unwrap()));
            while reactor.turn(Duration::ZERO).unwrap() || reactor.conns.len() < 64 * batch {}
        }

        let before = reactor.tally.pumped;
        peers[100].write_all(b"\n").unwrap();
        // Blocks until the request arrives, then runs the loop dry.
        while !reactor.turn(TICK).unwrap() {}
        while reactor.turn(Duration::ZERO).unwrap() {}
        peers[100].read_exact(&mut [0; REPLY]).unwrap();
        let pumped = reactor.tally.pumped - before;
        assert!(pumped <= 2, "{pumped} pumps for one request");
    }

    /// Run `serve` with an idle, a mid-frame and a stalled peer attached
    /// (`partial` is an incomplete request, `request` one whose replies
    /// outgrow the socket buffers when nobody reads them), raise `stop`, and
    /// require the return inside two ticks.
    fn assert_stops_promptly(
        serve: impl FnOnce(TcpListener, &AtomicBool) -> io::Result<()> + Send,
        partial: &[u8],
        request: &[u8],
    ) {
        let (listener, addr) = bind();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let front = s.spawn(|| (serve(listener, &stop), Instant::now()));
            let _idle = TcpStream::connect(addr).unwrap();
            let mut mid_frame = TcpStream::connect(addr).unwrap();
            mid_frame.write_all(partial).unwrap();
            let mut stalled = TcpStream::connect(addr).unwrap();
            stalled
                .set_write_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            // Until the server has stopped taking requests for that long.
            let burst = request.repeat(256);
            while stalled.write_all(&burst).is_ok() {}

            let raised = Instant::now();
            stop.store(true, Ordering::Relaxed);
            let (result, returned) = front.join().unwrap();
            result.unwrap();
            let took = returned.duration_since(raised);
            assert!(took < 2 * TICK, "{took:?} to stop");
        });
    }

    #[test]
    fn both_fronts_return_within_two_ticks_of_stop_whatever_their_peers_do() {
        let catalog = small_catalog();
        let options = ServeOptions {
            manifest: Some(vec![7; 4000]),
        };
        Server::scope(&catalog, ServerConfig::default(), |handle| {
            assert_stops_promptly(
                |listener, stop| serve_tcp_with(handle, listener, stop, &options),
                &[9, 0],
                &wire::frame(&[wire::OPCODE_HELLO]),
            );
        });
        let params = RamboParams::flat(8, 3, 1 << 10, 2, 7);
        let registry = TenantRegistry::new(params, TenantQuotas::default()).unwrap();
        assert_stops_promptly(
            |listener, stop| {
                serve_tenant_tcp(
                    &registry,
                    listener,
                    None,
                    stop,
                    &TenantServeOptions::default(),
                )
            },
            b"*2\r\n$4\r\nPI",
            format!("PING {}\r\n", "x".repeat(4000)).as_bytes(),
        );
    }

    #[test]
    fn accept_failures_are_classified() {
        use io::ErrorKind as K;
        let of = |e: io::Error| AcceptFailure::of(&e);
        assert_eq!(of(K::WouldBlock.into()), AcceptFailure::Drained);
        // A peer that reset before it was accepted, a signal: next, please.
        for kind in [K::ConnectionAborted, K::ConnectionReset, K::Interrupted] {
            assert_eq!(of(kind.into()), AcceptFailure::Skip, "{kind:?}");
        }
        // ENFILE, EMFILE, ENOMEM: sit out a tick, keep every tenant online.
        for errno in [23, 24, 12] {
            assert_eq!(
                of(io::Error::from_raw_os_error(errno)),
                AcceptFailure::Exhausted,
                "errno {errno}"
            );
        }
        // EBADF, EINVAL (not listening), and anything unheard of.
        for errno in [9, 22] {
            assert_eq!(
                of(io::Error::from_raw_os_error(errno)),
                AcceptFailure::Fatal
            );
        }
        assert_eq!(of(io::Error::other("?")), AcceptFailure::Fatal);
    }
}
