//! Per-replica pools of idle connections.
//!
//! A coordinator keeps one pool per shard replica. Checking out reuses an
//! idle connection when one exists and dials otherwise; checking in after
//! a clean exchange recycles the connection. Anything that errored is
//! simply *not* returned — the protocol is length-prefixed request/reply,
//! so after a timeout or short read the stream may hold a stale
//! half-frame and the only safe move is a fresh connection.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// `connect_timeout(.., Duration::ZERO)` is an error in std; clamp the
/// remaining-deadline bound to this floor instead.
const MIN_CONNECT_TIMEOUT: Duration = Duration::from_millis(1);

/// A bounded pool of idle connections to one replica.
#[derive(Debug)]
pub(crate) struct ClientPool {
    addr: SocketAddr,
    capacity: usize,
    idle: Mutex<Vec<TcpStream>>,
}

impl ClientPool {
    /// A pool dialing `addr`, keeping at most `capacity` idle connections.
    pub(crate) fn new(addr: SocketAddr, capacity: usize) -> Self {
        Self {
            addr,
            capacity,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The replica this pool dials.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Check out an idle connection, or dial one with a blocking connect
    /// bounded by `connect_timeout` (clamped to ≥1ms — the
    /// deadline-propagation path hands us whatever is left of the client's
    /// budget).
    ///
    /// # Errors
    /// Connect or socket-option failures.
    pub(crate) fn get(&self, connect_timeout: Duration) -> io::Result<TcpStream> {
        let reused = self.idle.lock().expect("pool lock poisoned").pop();
        if let Some(stream) = reused {
            return Ok(stream);
        }
        let stream =
            TcpStream::connect_timeout(&self.addr, connect_timeout.max(MIN_CONNECT_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Return a connection after a clean request/reply exchange. Dropped on
    /// the floor when the pool is full.
    pub(crate) fn put(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().expect("pool lock poisoned");
        if idle.len() < self.capacity {
            idle.push(stream);
        }
    }

    /// Drop every idle connection (e.g. after the replica was demoted — a
    /// recovered replica gets fresh dials, not sockets that died with it).
    pub(crate) fn clear(&self) {
        self.idle.lock().expect("pool lock poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    fn idle_len(pool: &ClientPool) -> usize {
        pool.idle.lock().expect("pool lock poisoned").len()
    }

    /// An accept-and-hold listener so `get` can dial something real.
    fn listener() -> (TcpListener, SocketAddr) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        (l, addr)
    }

    #[test]
    fn reuses_and_bounds_idle_connections() {
        let (l, addr) = listener();
        let pool = ClientPool::new(addr, 1);
        let c1 = pool.get(Duration::from_millis(100)).expect("dial 1");
        let s1 = l.accept().expect("accept 1").0;
        let c2 = pool.get(Duration::from_millis(100)).expect("dial 2");
        let s2 = l.accept().expect("accept 2").0;
        pool.put(c1);
        pool.put(c2); // over capacity → dropped
        assert_eq!(idle_len(&pool), 1);
        let c3 = pool.get(Duration::from_millis(100)).expect("reuse");
        assert_eq!(idle_len(&pool), 0, "reused the pooled connection");
        drop((c3, s1, s2));
    }

    #[test]
    fn zero_timeout_is_clamped_not_rejected() {
        let (l, addr) = listener();
        let pool = ClientPool::new(addr, 2);
        let client = pool.get(Duration::ZERO).expect("zero timeout must clamp");
        let (mut server_side, _) = l.accept().expect("accept");
        drop(client);
        // The connection really was established.
        let mut buf = [0u8; 1];
        assert_eq!(server_side.read(&mut buf).expect("peer closed"), 0);
        let _ = server_side.flush();
    }

    #[test]
    fn clear_empties_the_pool() {
        let (l, addr) = listener();
        let pool = ClientPool::new(addr, 4);
        let c = pool.get(Duration::from_millis(50)).expect("dial");
        let _s = l.accept().expect("accept");
        pool.put(c);
        assert_eq!(idle_len(&pool), 1);
        pool.clear();
        assert_eq!(idle_len(&pool), 0);
    }
}
