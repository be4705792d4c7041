//! A fault-injecting TCP proxy for the resilience suites (`faults.rs`,
//! `one_thread.rs`).
//!
//! Sits between the coordinator and one shard replica, relaying whole
//! frames (it parses the length prefixes, so corruption is well-defined)
//! and injecting one configured [`Fault`] at a time: reply delays to make
//! hedging fire, blackholes to exercise deadline propagation and
//! demotion, corrupt/truncated replies to exercise malformed-frame
//! rejection, and connection drops. It also records the `deadline_ms`
//! field of the last query request it saw, so tests can assert the
//! coordinator really propagates the *remaining* budget downstream
//! rather than the client's original deadline. Its own tests are in
//! `faults.rs`. Also the suites' fixture: one shard, two proxied replicas.

// Each suite that includes this module uses part of it.
#![allow(dead_code)]

use rambo_cluster::{plan_cluster, ClusterPlan, ShardNode};
use rambo_core::RamboParams;
use rambo_server::wire;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Sixteen documents on one shard.
pub fn plan() -> ClusterPlan {
    let docs: Vec<(String, Vec<u64>)> = (0..16u64)
        .map(|d| (format!("doc{d}"), (0..20).map(|t| d << 16 | t).collect()))
        .collect();
    plan_cluster(RamboParams::two_level(1, 16, 3, 1 << 12, 2, 9), &docs).unwrap()
}

/// One shard, two replicas, each behind its own proxy.
pub fn proxied_pair(plan: &ClusterPlan) -> (Vec<ShardNode>, FaultProxy, FaultProxy) {
    let (lo, hi) = plan.ranges[0];
    let nodes: Vec<ShardNode> = (0..2)
        .map(|r| ShardNode::spawn(plan.shards[0].clone(), 0, r, lo, hi).expect("spawn"))
        .collect();
    let p0 = FaultProxy::spawn(nodes[0].addr()).expect("proxy 0");
    let p1 = FaultProxy::spawn(nodes[1].addr()).expect("proxy 1");
    (nodes, p0, p1)
}

/// The one-shard topology through both proxies.
pub fn topo(p0: &FaultProxy, p1: &FaultProxy) -> Vec<Vec<SocketAddr>> {
    vec![vec![p0.addr(), p1.addr()]]
}

/// What the proxy does to traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Relay faithfully.
    None,
    /// Relay, but sit on every reply for this many milliseconds first.
    DelayReplyMs(u64),
    /// Swallow requests: forward nothing, answer nothing. The client sees
    /// a read timeout (or its deadline), never a reply.
    Blackhole,
    /// Relay the request, then flip bytes inside the reply payload (the
    /// length prefix stays correct, so the damage is in the frame body).
    CorruptReply,
    /// Relay the request, then send only half of the reply frame and
    /// close the connection.
    TruncateReply,
    /// Close the client connection as soon as a query request arrives.
    CloseOnQuery,
}

/// How often relay threads re-check the stop flag while idle.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// A running fault proxy in front of one upstream replica.
#[derive(Debug)]
pub struct FaultProxy {
    addr: SocketAddr,
    fault: Arc<Mutex<Fault>>,
    /// `deadline_ms` of the last query request observed (0 = none yet).
    last_deadline_ms: Arc<AtomicU32>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Start a proxy on a fresh loopback port relaying to `upstream`.
    ///
    /// # Errors
    /// Bind failures.
    pub fn spawn(upstream: SocketAddr) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let fault = Arc::new(Mutex::new(Fault::None));
        let last_deadline_ms = Arc::new(AtomicU32::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_state = (
            Arc::clone(&fault),
            Arc::clone(&last_deadline_ms),
            Arc::clone(&stop),
        );
        let thread = std::thread::spawn(move || {
            let (fault, last_deadline_ms, stop) = accept_state;
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((client, _)) => {
                        let fault = Arc::clone(&fault);
                        let last = Arc::clone(&last_deadline_ms);
                        let stop = Arc::clone(&stop);
                        std::thread::spawn(move || relay(client, upstream, &fault, &last, &stop));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        });
        Ok(Self {
            addr,
            fault,
            last_deadline_ms,
            stop,
            thread: Some(thread),
        })
    }

    /// The address to dial instead of the upstream.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Swap the active fault (applies to frames relayed from now on).
    pub fn set_fault(&self, fault: Fault) {
        *self.fault.lock().expect("fault lock poisoned") = fault;
    }

    /// `deadline_ms` of the last query request the proxy saw (0 = none).
    #[must_use]
    pub fn last_deadline_ms(&self) -> u32 {
        self.last_deadline_ms.load(Ordering::Relaxed)
    }

    /// Stop accepting and wind down the accept thread. Established relays
    /// notice the flag within a poll interval.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Relay one client connection frame-by-frame, applying the active fault.
fn relay(
    mut client: TcpStream,
    upstream: SocketAddr,
    fault: &Mutex<Fault>,
    last_deadline_ms: &AtomicU32,
    stop: &AtomicBool,
) {
    if client.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut server: Option<TcpStream> = None;
    while !stop.load(Ordering::Relaxed) {
        let request = match wire::read_frame(&mut client) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        if request.first() == Some(&wire::OPCODE_QUERY) && request.len() >= 16 {
            let ms = u32::from_le_bytes(request[12..16].try_into().expect("4 bytes"));
            last_deadline_ms.store(ms, Ordering::Relaxed);
        }
        let active = *fault.lock().expect("fault lock poisoned");
        match active {
            Fault::Blackhole => continue, // swallow; never answer
            Fault::CloseOnQuery if request.first() == Some(&wire::OPCODE_QUERY) => return,
            _ => {}
        }
        // Lazily dial the upstream on first use.
        if server.is_none() {
            match TcpStream::connect(upstream) {
                Ok(s) => {
                    if s.set_read_timeout(Some(Duration::from_secs(5))).is_err() {
                        return;
                    }
                    server = Some(s);
                }
                Err(_) => return,
            }
        }
        let up = server.as_mut().expect("dialed above");
        if up.write_all(&wire::frame(&request)).is_err() {
            return;
        }
        let reply = match wire::read_frame(up) {
            Ok(Some(p)) => p,
            _ => return,
        };
        let mut out = wire::frame(&reply);
        match active {
            Fault::DelayReplyMs(ms) => {
                // Sleep in poll-sized slices so shutdown stays prompt.
                let mut left = Duration::from_millis(ms);
                while !left.is_zero() && !stop.load(Ordering::Relaxed) {
                    let nap = left.min(POLL_INTERVAL);
                    std::thread::sleep(nap);
                    left -= nap;
                }
            }
            Fault::CorruptReply => {
                // Flip bytes in the payload, sparing the length prefix.
                for b in &mut out[4..] {
                    *b ^= 0xA5;
                }
            }
            Fault::TruncateReply => {
                out.truncate(4 + reply.len() / 2);
                let _ = client.write_all(&out);
                return; // half a frame, then hang up
            }
            _ => {}
        }
        if client.write_all(&out).is_err() {
            return;
        }
    }
}
