//! A scripted replica for the real-socket smoke tests (`faults.rs`,
//! `one_thread.rs`): it answers `HELLO` with a given manifest and each
//! query request with the next scripted [`Reply`], with no upstream. Also
//! the suites' fixture: one shard of sixteen documents.

// Each suite that includes this module uses part of it.
#![allow(dead_code)]

use rambo_cluster::{plan_cluster, ClusterPlan, NodeManifest, ShardNode};
use rambo_core::{QueryMode, RamboParams};
use rambo_server::wire;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Sixteen documents on one shard.
pub fn plan() -> ClusterPlan {
    let docs: Vec<(String, Vec<u64>)> = (0..16u64)
        .map(|d| (format!("doc{d}"), (0..20).map(|t| d << 16 | t).collect()))
        .collect();
    plan_cluster(RamboParams::two_level(1, 16, 3, 1 << 12, 2, 9), &docs).unwrap()
}

/// A real replica 1 of the plan's shard.
pub fn node(plan: &ClusterPlan) -> ShardNode {
    let (lo, hi) = plan.ranges[0];
    ShardNode::spawn(plan.shards[0].clone(), 0, 1, lo, hi).expect("spawn")
}

/// The shard's true reply frame to `terms`.
pub fn answer(plan: &ClusterPlan, terms: &[u64]) -> Vec<u8> {
    let docs = plan.shards[0].query_terms_u64(terms, QueryMode::Full);
    let mut frame = Vec::new();
    wire::encode_response(&mut frame, wire::STATUS_OK, 0, &docs);
    frame
}

/// What the scripted replica does with one query request.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Write these bytes and keep the connection.
    Bytes(Vec<u8>),
    /// Write these bytes, then hang up.
    Hangup(Vec<u8>),
    /// Say nothing and keep the connection.
    Silent,
}

/// A fake replica on a loopback port, serving one connection at a time on
/// one thread. Once its script runs out it is silent.
pub struct Scripted {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The connection being served, so `drop` can end it.
    serving: Arc<Mutex<Option<TcpStream>>>,
    thread: Option<JoinHandle<()>>,
}

impl Scripted {
    /// Serve `manifest` (as replica 0) to `HELLO`, or swallow `HELLO` when
    /// it is `None`, and `replies` to queries in order.
    pub fn spawn(manifest: Option<NodeManifest>, replies: Vec<Reply>) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let hello = manifest.map(|m| NodeManifest { replica: 0, ..m }.encode());
        let script = Mutex::new(VecDeque::from(replies));
        let serving = Arc::new(Mutex::new(None));
        let (halt, current) = (Arc::clone(&stop), Arc::clone(&serving));
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                *current.lock().unwrap() = stream.try_clone().ok();
                // Checked after publishing the stream: `drop` either sees
                // it and shuts it down, or has set `halt` already.
                if halt.load(Ordering::SeqCst) {
                    return;
                }
                serve(stream, hello.as_deref(), &script);
                current.lock().unwrap().take(); // the clone would hold it open
            }
        });
        Self {
            addr,
            stop,
            serving,
            thread: Some(thread),
        }
    }

    /// The address to dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Scripted {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(stream) = self.serving.lock().ok().and_then(|mut s| s.take()) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(self.addr); // wake the accept
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Serve one connection until the peer or the script hangs up.
fn serve(mut stream: TcpStream, hello: Option<&[u8]>, script: &Mutex<VecDeque<Reply>>) {
    while let Ok(Some(request)) = wire::read_frame(&mut stream) {
        let reply = match request[0] {
            wire::OPCODE_HELLO => hello.map_or(Reply::Silent, |manifest| {
                let mut frame = Vec::new();
                wire::encode_blob(&mut frame, wire::STATUS_OK, manifest);
                Reply::Bytes(frame)
            }),
            wire::OPCODE_QUERY => script.lock().unwrap().pop_front().unwrap_or(Reply::Silent),
            _ => Reply::Silent,
        };
        match reply {
            Reply::Bytes(bytes) if stream.write_all(&bytes).is_ok() => {}
            Reply::Silent => {}
            Reply::Bytes(_) => return,
            Reply::Hangup(bytes) => {
                let _ = stream.write_all(&bytes);
                return;
            }
        }
    }
}
