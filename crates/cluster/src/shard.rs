//! A shard node: the existing serving stack wrapped around one node-local
//! shard, announcing its identity via the `HELLO` manifest.

use crate::manifest::NodeManifest;
use rambo_core::{DocId, Rambo};
use rambo_server::{serve_tcp_with, Catalog, ServeOptions, Server, ServerConfig};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One running shard replica: a [`Server`] over the shard's catalog behind
/// [`serve_tcp_with`], on its own thread. Dropping (or [`ShardNode::kill`])
/// stops the front, joins the thread and closes the listener — from then
/// on the address refuses connections, which is exactly the failure a
/// coordinator's failover path is built for (and what the cluster bench
/// inflicts on purpose).
#[derive(Debug)]
pub struct ShardNode {
    addr: SocketAddr,
    manifest: NodeManifest,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ShardNode {
    /// Bind a loopback listener and serve `shard` as replica `replica` of
    /// shard `shard_id`, covering global doc ids `[doc_lo, doc_hi)`. The
    /// catalog is single-tier (the shard's own geometry); production
    /// deployments with fold-over tiers build their own catalog and use
    /// [`ShardNode::spawn_with_catalog`].
    ///
    /// # Errors
    /// Bind failures and catalog construction errors.
    pub fn spawn(
        shard: Rambo,
        shard_id: u32,
        replica: u32,
        doc_lo: DocId,
        doc_hi: DocId,
    ) -> io::Result<Self> {
        let catalog = Catalog::builder()
            .base(&shard)
            .tier_buckets(&[shard.buckets()])
            .build()
            .map_err(|e| io::Error::other(format!("shard catalog build failed: {e}")))?;
        Self::spawn_with_catalog(catalog, shard_id, replica, doc_lo, doc_hi)
    }

    /// [`ShardNode::spawn`] with a pre-built (possibly multi-tier)
    /// catalog.
    ///
    /// # Errors
    /// Bind failures.
    pub fn spawn_with_catalog(
        catalog: Catalog,
        shard_id: u32,
        replica: u32,
        doc_lo: DocId,
        doc_hi: DocId,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let manifest = NodeManifest::for_catalog(shard_id, replica, doc_lo, doc_hi, &catalog);
        let options = ServeOptions {
            manifest: Some(manifest.encode()),
        };
        let stop = Arc::new(AtomicBool::new(false));
        let stop_for_thread = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            Server::scope(&catalog, ServerConfig::default(), |handle| {
                let _ = serve_tcp_with(handle, listener, &stop_for_thread, &options);
            });
        });
        Ok(Self {
            addr,
            manifest,
            stop,
            thread: Some(thread),
        })
    }

    /// The address clients and coordinators dial.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The manifest this node announces to `HELLO`.
    #[must_use]
    pub fn manifest(&self) -> NodeManifest {
        self.manifest
    }

    /// Stop serving and wait for the node to wind down. Idempotent; after
    /// this the address refuses new connections and established ones see
    /// EOF — the transport failures the coordinator demotes on.
    pub fn kill(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ShardNode {
    fn drop(&mut self) {
        self.kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambo_core::{QueryMode, RamboParams};
    use rambo_server::TcpClient;
    use std::time::Duration;

    fn small_shard() -> Rambo {
        let mut r = Rambo::new(RamboParams::flat(16, 3, 1 << 12, 2, 7)).unwrap();
        for d in 0..10u64 {
            r.insert_document(&format!("doc{d}"), (0..20).map(|t| d << 16 | t))
                .unwrap();
        }
        r
    }

    #[test]
    fn serves_queries_and_manifest() {
        let shard = small_shard();
        let oracle = shard.query_terms_u64(&[3 << 16 | 4], QueryMode::Full);
        let node = ShardNode::spawn(shard, 2, 1, 100, 110).expect("spawn");
        let mut client =
            TcpClient::connect_with_timeout(node.addr(), Duration::from_secs(2)).expect("dial");
        let manifest = NodeManifest::decode(&client.hello().expect("hello")).expect("decode");
        assert_eq!(manifest, node.manifest());
        assert_eq!(manifest.shard, 2);
        assert_eq!((manifest.doc_lo, manifest.doc_hi), (100, 110));
        let reply = client
            .query(&[3 << 16 | 4], 0.0, Duration::from_secs(2))
            .expect("query");
        assert_eq!(reply.docs, oracle);
    }

    #[test]
    fn kill_refuses_new_connections() {
        let mut node = ShardNode::spawn(small_shard(), 0, 0, 0, 10).expect("spawn");
        let addr = node.addr();
        node.kill();
        node.kill(); // idempotent
        assert!(
            TcpClient::connect_with_timeout(addr, Duration::from_millis(500)).is_err(),
            "killed node must refuse connections"
        );
    }
}
