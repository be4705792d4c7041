//! Raw-bytes TCP test client shared by the protocol test suites.
//!
//! Every serving front in the workspace (catalog, live, cluster, tenant)
//! grew its own ad-hoc `TcpStream` snippets for the awkward cases the
//! polished clients hide: malformed frames, half-written frames, stalled
//! peers, byte-exact transcript replay. [`TestClient`] collects those
//! patterns behind knobs:
//!
//! * **connect/timeout** — bounded connect and I/O timeouts by default, so
//!   a wedged server fails a test in seconds instead of hanging CI;
//! * **frame-split injection** — [`TestClient::set_split`] makes every
//!   subsequent send dribble out in `chunk`-byte slices with a pause in
//!   between, exercising the reactors' partial-frame reassembly across
//!   poll ticks (the fuzz suites drive this knob from a seeded RNG);
//! * **framings** — helpers for both wire shapes: u32-LE length-prefixed
//!   binary frames ([`TestClient::send_framed`]/[`TestClient::read_frame`])
//!   and RESP2 ([`TestClient::send_resp`]/[`TestClient::read_resp_reply`],
//!   which returns one reply's exact bytes for transcript diffing).
//!
//! The client is deliberately protocol-dumb: it never interprets replies
//! beyond finding their boundaries, because the conformance suites assert
//! on raw bytes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default connect and I/O bound: generous for CI, far below a hang.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// A blocking TCP client for protocol tests, with timeout and
/// frame-splitting knobs. See the module docs.
#[derive(Debug)]
pub struct TestClient {
    stream: TcpStream,
    /// When set, sends are split into `chunk`-byte writes with `pause`
    /// between them.
    split: Option<(usize, Duration)>,
    /// Unconsumed reply bytes (a read may pull more than one reply).
    buf: Vec<u8>,
}

impl TestClient {
    /// Connect with the default 10-second connect and I/O timeouts.
    ///
    /// # Errors
    /// Propagates resolution and connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, DEFAULT_TIMEOUT, Some(DEFAULT_TIMEOUT))
    }

    /// Connect with explicit bounds. `io_timeout: None` means blocking
    /// reads and writes (use only when the test owns the server's
    /// lifecycle).
    ///
    /// # Errors
    /// Propagates resolution and connection failures.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        connect_timeout: Duration,
        io_timeout: Option<Duration>,
    ) -> io::Result<Self> {
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(io_timeout)?;
                    stream.set_write_timeout(io_timeout)?;
                    return Ok(Self {
                        stream,
                        split: None,
                        buf: Vec::new(),
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// The connected peer.
    ///
    /// # Errors
    /// Propagates the socket query failure.
    pub fn peer(&self) -> io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Split every subsequent send into `chunk`-byte writes separated by
    /// `pause` (flushing each), so the server sees the bytes across many
    /// poll ticks. `chunk` is clamped to at least 1.
    pub fn set_split(&mut self, chunk: usize, pause: Duration) {
        self.split = Some((chunk.max(1), pause));
    }

    /// Turn frame splitting back off.
    pub fn clear_split(&mut self) {
        self.split = None;
    }

    /// Send raw bytes, honoring the split knob.
    ///
    /// # Errors
    /// Propagates transport failures.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.split {
            None => self.stream.write_all(bytes),
            Some((chunk, pause)) => {
                for (i, piece) in bytes.chunks(chunk).enumerate() {
                    if i > 0 && !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    self.stream.write_all(piece)?;
                    self.stream.flush()?;
                }
                Ok(())
            }
        }
    }

    /// Send one binary frame: u32-LE length prefix followed by `payload`.
    ///
    /// # Errors
    /// Propagates transport failures.
    pub fn send_framed(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut wire = Vec::with_capacity(4 + payload.len());
        wire.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("frame fits u32")
                .to_le_bytes(),
        );
        wire.extend_from_slice(payload);
        self.send(&wire)
    }

    /// Half-close the write side: the server sees EOF after what was sent.
    ///
    /// # Errors
    /// Propagates the shutdown failure.
    pub fn shutdown_write(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }

    /// Read one binary frame's payload (u32-LE length prefix stripped).
    ///
    /// # Errors
    /// Propagates transport failures, including timeouts; a length above
    /// `max_len` is reported as [`io::ErrorKind::InvalidData`].
    pub fn read_frame(&mut self, max_len: usize) -> io::Result<Vec<u8>> {
        let head = self.read_exact_buffered(4)?;
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        if len > max_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} above cap {max_len}"),
            ));
        }
        self.read_exact_buffered(len)
    }

    /// Read until the server closes the connection, returning everything
    /// (buffered leftovers included).
    ///
    /// # Errors
    /// Propagates transport failures, including read timeouts.
    pub fn read_until_close(&mut self) -> io::Result<Vec<u8>> {
        let mut out = std::mem::take(&mut self.buf);
        self.stream.read_to_end(&mut out)?;
        Ok(out)
    }

    /// Encode `args` as a RESP2 array of bulk strings and send it (split
    /// knob honored) — the framing `redis-cli` uses.
    ///
    /// # Errors
    /// Propagates transport failures.
    pub fn send_resp(&mut self, args: &[&[u8]]) -> io::Result<()> {
        let mut wire = format!("*{}\r\n", args.len()).into_bytes();
        for arg in args {
            wire.extend_from_slice(format!("${}\r\n", arg.len()).as_bytes());
            wire.extend_from_slice(arg);
            wire.extend_from_slice(b"\r\n");
        }
        self.send(&wire)
    }

    /// Send one inline RESP command line (the framing `nc` users type).
    ///
    /// # Errors
    /// Propagates transport failures.
    pub fn send_resp_inline(&mut self, line: &str) -> io::Result<()> {
        let mut wire = line.as_bytes().to_vec();
        wire.extend_from_slice(b"\r\n");
        self.send(&wire)
    }

    /// Read exactly one RESP reply and return its raw bytes (type marker
    /// and CRLFs included) — the unit of transcript diffing. Nested arrays
    /// are followed to their end.
    ///
    /// # Errors
    /// Propagates transport failures (including timeouts, which is how a
    /// test discovers the server chose not to answer) and reports replies
    /// that violate RESP framing as [`io::ErrorKind::InvalidData`].
    pub fn read_resp_reply(&mut self) -> io::Result<Vec<u8>> {
        loop {
            match resp_reply_len(&self.buf)? {
                Some(n) => {
                    let reply = self.buf.drain(..n).collect();
                    return Ok(reply);
                }
                None => self.fill()?,
            }
        }
    }

    /// Read exactly `n` bytes — the transcript-replay primitive: a golden
    /// suite knows precisely how many reply bytes a step owes it.
    ///
    /// # Errors
    /// Propagates transport failures, including timeouts and early close.
    pub fn read_exact(&mut self, n: usize) -> io::Result<Vec<u8>> {
        self.read_exact_buffered(n)
    }

    /// Read `n` bytes through the internal buffer.
    fn read_exact_buffered(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() < n {
            self.fill()?;
        }
        Ok(self.buf.drain(..n).collect())
    }

    /// Pull at least one byte from the socket into the buffer.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-reply",
                    ))
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Length in bytes of the first complete RESP reply in `buf`, or `None`
/// when more bytes are needed.
fn resp_reply_len(buf: &[u8]) -> io::Result<Option<usize>> {
    fn line_end(buf: &[u8], from: usize) -> Option<usize> {
        buf[from..]
            .windows(2)
            .position(|w| w == b"\r\n")
            .map(|i| from + i + 2)
    }
    fn value_end(buf: &[u8], from: usize) -> io::Result<Option<usize>> {
        let Some(&marker) = buf.get(from) else {
            return Ok(None);
        };
        let Some(after_line) = line_end(buf, from + 1) else {
            return Ok(None);
        };
        let header = &buf[from + 1..after_line - 2];
        let int_header = || -> io::Result<i64> {
            std::str::from_utf8(header)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "malformed RESP length header")
                })
        };
        match marker {
            b'+' | b'-' | b':' => Ok(Some(after_line)),
            b'$' => {
                let n = int_header()?;
                if n < 0 {
                    return Ok(Some(after_line)); // null bulk
                }
                #[allow(clippy::cast_sign_loss)]
                let end = after_line + n as usize + 2;
                Ok((buf.len() >= end).then_some(end))
            }
            b'*' => {
                let n = int_header()?;
                let mut pos = after_line;
                for _ in 0..n.max(0) {
                    match value_end(buf, pos)? {
                        Some(next) => pos = next,
                        None => return Ok(None),
                    }
                }
                Ok(Some(pos))
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown RESP type byte {other:#04x}"),
            )),
        }
    }
    value_end(buf, 0)
}

#[cfg(test)]
mod tests {
    use super::resp_reply_len;

    #[test]
    fn reply_boundaries() {
        assert_eq!(resp_reply_len(b"+OK\r\n:3\r\n").unwrap(), Some(5));
        assert_eq!(resp_reply_len(b"$5\r\nhello\r\n").unwrap(), Some(11));
        assert_eq!(resp_reply_len(b"$-1\r\n").unwrap(), Some(5));
        assert_eq!(
            resp_reply_len(b"*2\r\n:1\r\n$2\r\nab\r\ntrailing").unwrap(),
            Some(16)
        );
        assert_eq!(resp_reply_len(b"*0\r\n").unwrap(), Some(4));
        // Incomplete prefixes wait for more bytes.
        for cut in 0..11 {
            assert_eq!(resp_reply_len(&b"$5\r\nhello\r\n"[..cut]).unwrap(), None);
        }
        // Garbage is an error, not a hang.
        assert!(resp_reply_len(b"x\r\n").is_err());
        assert!(resp_reply_len(b"$abc\r\n").is_err());
    }
}
