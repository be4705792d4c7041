//! The two wire protocols as raw bytes, and the one connection that drives
//! them. Nothing here uses the repository's client code: the golden
//! transcripts under `crates/server/tests` pin these bytes, so a server that
//! still passes them still understands this client.
//!
//! Binary front (little-endian):
//!   request  := u32 len | u8 1 | u8 mode | u16 0 | f64 fpr_budget
//!               | u32 deadline_ms | u32 n | n × u64
//!   response := u32 len | u8 status | u32 tier | u32 n | n × u32
//! RESP2 front: arrays of bulk strings in, RESP2 replies out.

use crate::stats::Slice;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A reply, in whichever protocol it came.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Matching documents (binary: ids; RESP: names `d<id>` turned back
    /// into ids), in the order sent, and the tier that answered.
    Docs { docs: Vec<u32>, tier: u32 },
    /// RESP integer (`R.INSERTDOC` returns the new document's id).
    Int(i64),
    /// RESP `+OK`.
    Ok,
    /// A refusal, a deadline, a protocol error: a failed operation.
    Error(String),
}

#[derive(Debug, Clone, Copy)]
pub enum Protocol {
    Binary,
    Resp,
}

/// Requests of one phase, encoded before the clock starts so that timing
/// sees the server and the socket, not the client's formatting.
#[derive(Default)]
pub struct Requests {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Requests {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Binary `QUERY` frame, default mode.
    pub fn push_binary_query(&mut self, terms: &[u64], fpr_budget: f64, deadline: Duration) {
        let len = 20 + 8 * terms.len();
        self.bytes.extend_from_slice(&(len as u32).to_le_bytes());
        self.bytes.extend_from_slice(&[1, 0, 0, 0]);
        self.bytes.extend_from_slice(&fpr_budget.to_le_bytes());
        self.bytes
            .extend_from_slice(&(deadline.as_millis() as u32).to_le_bytes());
        self.bytes
            .extend_from_slice(&(terms.len() as u32).to_le_bytes());
        for t in terms {
            self.bytes.extend_from_slice(&t.to_le_bytes());
        }
        self.ends.push(self.bytes.len());
    }

    /// RESP command: `head` words, then `terms` as decimal tokens (which the
    /// server takes as raw term hashes).
    pub fn push_resp(&mut self, head: &[&str], terms: &[u64]) {
        let _ = write!(self.bytes, "*{}\r\n", head.len() + terms.len());
        for h in head {
            let _ = write!(self.bytes, "${}\r\n{h}\r\n", h.len());
        }
        let mut digits = Vec::with_capacity(20);
        for t in terms {
            digits.clear();
            let _ = write!(digits, "{t}");
            let _ = write!(self.bytes, "${}\r\n", digits.len());
            self.bytes.extend_from_slice(&digits);
            self.bytes.extend_from_slice(b"\r\n");
        }
        self.ends.push(self.bytes.len());
    }
}

/// One blocking connection: the benchmark's single load generator (rule 1).
pub struct Connection {
    stream: TcpStream,
    protocol: Protocol,
    rx: Vec<u8>,
    at: usize,
}

/// How long a reply may take before the connection is given up for dead.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
const READ_CHUNK: usize = 1 << 16;

impl Connection {
    pub fn open(addr: SocketAddr, protocol: Protocol) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the server just started");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .expect("read timeout");
        Self {
            stream,
            protocol,
            rx: Vec::with_capacity(READ_CHUNK),
            at: 0,
        }
    }

    fn send(&mut self, request: &[u8]) -> Result<(), String> {
        self.stream.write_all(request).map_err(|e| e.to_string())
    }

    fn recv(&mut self) -> Result<Reply, String> {
        loop {
            let parsed = match self.protocol {
                Protocol::Binary => parse_binary(&self.rx[self.at..]),
                Protocol::Resp => parse_resp(&self.rx[self.at..]),
            }?;
            if let Some((reply, used)) = parsed {
                self.at += used;
                if self.at == self.rx.len() {
                    self.rx.clear();
                    self.at = 0;
                }
                return Ok(reply);
            }
            if self.at > 0 {
                self.rx.drain(..self.at);
                self.at = 0;
            }
            let filled = self.rx.len();
            self.rx.resize(filled + READ_CHUNK, 0);
            let got = self.stream.read(&mut self.rx[filled..]);
            self.rx.truncate(filled + got.as_ref().map_or(0, |&n| n));
            match got {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// One request, one reply; a transport failure is that op's error.
    pub fn call(&mut self, request: &[u8]) -> Reply {
        match self.send(request).and_then(|()| self.recv()) {
            Ok(r) => r,
            Err(e) => Reply::Error(e),
        }
    }

    pub fn call_one(&mut self, build: impl FnOnce(&mut Requests)) -> Reply {
        let mut r = Requests::default();
        build(&mut r);
        self.call(r.get(0))
    }

    /// Latency phase: closed loop, a think time before every request so each
    /// one meets an idle reactor. Returns per-op round trips in ns.
    pub fn closed_loop(
        &mut self,
        requests: &Requests,
        think_ns: &[u64],
        mut on_reply: impl FnMut(usize, Reply, u64, u64),
    ) -> Vec<u32> {
        let epoch = Instant::now();
        let mut rtts = Vec::with_capacity(requests.len());
        assert_eq!(think_ns.len(), requests.len(), "one think time per request");
        for (i, &think) in think_ns.iter().enumerate() {
            crate::rng::spin_ns(think);
            let start = epoch.elapsed().as_nanos() as u64;
            let reply = self.call(requests.get(i));
            let end = epoch.elapsed().as_nanos() as u64;
            rtts.push((end - start).min(u64::from(u32::MAX)) as u32);
            on_reply(i, reply, start, end);
        }
        rtts
    }

    /// [`Connection::pipelined`], keeping the replies.
    pub fn pipelined_all(&mut self, requests: &Requests, depth: usize) -> (Slice, Vec<Reply>) {
        let mut replies = Vec::with_capacity(requests.len());
        let slice = self.pipelined(requests, depth, |_, r| replies.push(r));
        (slice, replies)
    }

    /// Saturation phase: the same connection with `depth` requests in
    /// flight, so the reactor's naps are amortised. All of `requests` run as
    /// one timed slice, in whole windows: `depth` requests are sent, their
    /// replies read, and the next window follows. (Topping the window up
    /// after every reply instead races the reactor's idle check: whether it
    /// finds its socket empty and naps differs from slice to slice, and the
    /// throughput with it. With whole windows it naps once per window.)
    pub fn pipelined(
        &mut self,
        requests: &Requests,
        depth: usize,
        mut on_reply: impl FnMut(usize, Reply),
    ) -> Slice {
        let start = Instant::now();
        let mut failed: Option<String> = None;
        for first in (0..requests.len()).step_by(depth) {
            let window = first..(first + depth).min(requests.len());
            for i in window.clone() {
                if failed.is_none() {
                    failed = self.send(requests.get(i)).err();
                }
            }
            for i in window {
                let reply = match failed.clone() {
                    Some(e) => Reply::Error(e),
                    None => self.recv().unwrap_or_else(|e| {
                        failed = Some(e.clone());
                        Reply::Error(e)
                    }),
                };
                on_reply(i, reply);
            }
        }
        Slice {
            ops: requests.len(),
            elapsed: start.elapsed(),
        }
    }
}

fn parse_binary(buf: &[u8]) -> Result<Option<(Reply, usize)>, String> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let body = &buf[4..4 + len];
    let reply = match body {
        [0, rest @ ..] if rest.len() >= 8 => {
            let tier = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
            let n = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
            if rest.len() != 8 + 4 * n {
                return Err(format!(
                    "response of {len} bytes does not hold {n} documents"
                ));
            }
            let docs = rest[8..]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            Reply::Docs { docs, tier }
        }
        [1, ..] => Reply::Error("overloaded".into()),
        [2, ..] => Reply::Error("deadline exceeded".into()),
        [3, ..] => Reply::Error("bad request".into()),
        _ => return Err("malformed response frame".into()),
    };
    Ok(Some((reply, 4 + len)))
}

/// One CRLF-terminated line starting at `at`: (line, index after CRLF).
fn line(buf: &[u8], at: usize) -> Option<(&[u8], usize)> {
    let nl = buf[at..].iter().position(|&b| b == b'\n')? + at;
    (nl > at + 1 && buf[nl - 1] == b'\r').then(|| (&buf[at + 1..nl - 1], nl + 1))
}

fn number(digits: &[u8]) -> Result<i64, String> {
    std::str::from_utf8(digits)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad RESP number {:?}", String::from_utf8_lossy(digits)))
}

fn parse_resp(buf: &[u8]) -> Result<Option<(Reply, usize)>, String> {
    let Some(&kind) = buf.first() else {
        return Ok(None);
    };
    let Some((head, mut at)) = line(buf, 0) else {
        return Ok(None);
    };
    let reply = match kind {
        b'+' => Reply::Ok,
        b'-' => Reply::Error(String::from_utf8_lossy(head).into_owned()),
        b':' => Reply::Int(number(head)?),
        b'*' => {
            let n = number(head)?.max(0) as usize;
            let mut docs = Vec::with_capacity(n);
            for _ in 0..n {
                let Some((len, body)) = line(buf, at) else {
                    return Ok(None);
                };
                if buf.get(at) != Some(&b'$') {
                    return Err("array element is not a bulk string".into());
                }
                let len = number(len)? as usize;
                if buf.len() < body + len + 2 {
                    return Ok(None);
                }
                let name = &buf[body..body + len];
                let id = name
                    .strip_prefix(b"d")
                    .ok_or_else(|| "document name without the d prefix".to_string())
                    .and_then(number)?;
                docs.push(id as u32);
                at = body + len + 2;
            }
            Reply::Docs { docs, tier: 0 }
        }
        other => return Err(format!("unexpected RESP type byte {other:#x}")),
    };
    Ok(Some((reply, at)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_request_bytes_match_the_documented_frame() {
        let mut r = Requests::default();
        r.push_binary_query(&[7, 9], 0.25, Duration::from_millis(1500));
        let f = r.get(0);
        assert_eq!(&f[..4], &36u32.to_le_bytes());
        assert_eq!(&f[4..8], &[1, 0, 0, 0]);
        assert_eq!(&f[8..16], &0.25f64.to_le_bytes());
        assert_eq!(&f[16..20], &1500u32.to_le_bytes());
        assert_eq!(&f[20..24], &2u32.to_le_bytes());
        assert_eq!(&f[24..32], &7u64.to_le_bytes());
        assert_eq!(f.len(), 40);
    }

    #[test]
    fn binary_replies_parse_whole_partial_and_refused() {
        let mut ok = vec![];
        ok.extend_from_slice(&17u32.to_le_bytes());
        ok.push(0);
        ok.extend_from_slice(&2u32.to_le_bytes());
        ok.extend_from_slice(&2u32.to_le_bytes());
        ok.extend_from_slice(&5u32.to_le_bytes());
        ok.extend_from_slice(&8u32.to_le_bytes());
        let want = Reply::Docs {
            docs: vec![5, 8],
            tier: 2,
        };
        assert_eq!(parse_binary(&ok), Ok(Some((want, 21))));
        assert_eq!(parse_binary(&ok[..20]), Ok(None));
        let refused = [1, 0, 0, 0, 1];
        assert!(matches!(
            parse_binary(&refused),
            Ok(Some((Reply::Error(_), 5)))
        ));
    }

    #[test]
    fn resp_requests_and_replies_round_trip() {
        let mut r = Requests::default();
        r.push_resp(&["R.QUERYSEQ", "t0", "0.8"], &[42, 7]);
        assert_eq!(
            r.get(0),
            b"*5\r\n$10\r\nR.QUERYSEQ\r\n$2\r\nt0\r\n$3\r\n0.8\r\n$2\r\n42\r\n$1\r\n7\r\n"
        );
        assert_eq!(parse_resp(b":17\r\n"), Ok(Some((Reply::Int(17), 5))));
        assert_eq!(parse_resp(b"+OK\r\n"), Ok(Some((Reply::Ok, 5))));
        assert!(matches!(
            parse_resp(b"-ERR quota exceeded\r\n"),
            Ok(Some((Reply::Error(_), 21)))
        ));
        let arr = b"*2\r\n$2\r\nd3\r\n$3\r\nd12\r\n";
        let want = Reply::Docs {
            docs: vec![3, 12],
            tier: 0,
        };
        assert_eq!(parse_resp(arr), Ok(Some((want, arr.len()))));
        assert_eq!(parse_resp(&arr[..arr.len() - 3]), Ok(None));
        assert_eq!(
            parse_resp(b"*0\r\n"),
            Ok(Some((
                Reply::Docs {
                    docs: vec![],
                    tier: 0
                },
                4
            )))
        );
    }
}
