//! Per-replica connection pools over [`TcpClient`].
//!
//! A coordinator keeps one pool per shard replica. Checking out reuses an
//! idle connection when one exists and dials otherwise; checking in after
//! a clean exchange recycles the connection. Anything that errored is
//! simply *not* returned — the protocol is length-prefixed request/reply,
//! so after a timeout or short read the stream may hold a stale
//! half-frame and the only safe move is a fresh connection.

use rambo_server::TcpClient;
use std::io;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

/// `set_read_timeout(Some(Duration::ZERO))` is an error in std; clamp the
/// remaining-deadline timeout to this floor instead.
const MIN_IO_TIMEOUT: Duration = Duration::from_millis(1);

/// A bounded pool of idle connections to one replica.
#[derive(Debug)]
pub struct ClientPool {
    addr: SocketAddr,
    connect_timeout: Duration,
    capacity: usize,
    idle: Mutex<Vec<TcpClient>>,
}

impl ClientPool {
    /// A pool dialing `addr` with `connect_timeout`, keeping at most
    /// `capacity` idle connections.
    #[must_use]
    pub fn new(addr: SocketAddr, connect_timeout: Duration, capacity: usize) -> Self {
        Self {
            addr,
            connect_timeout,
            capacity,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The replica this pool dials.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Check out a connection with reads and writes bounded by `io_timeout`
    /// (clamped to ≥1ms — the deadline-propagation path hands us whatever
    /// is left of the client's budget).
    ///
    /// # Errors
    /// Connect or socket-option failures.
    pub fn get(&self, io_timeout: Duration) -> io::Result<TcpClient> {
        let reused = self.idle.lock().expect("pool lock poisoned").pop();
        let mut client = match reused {
            Some(c) => c,
            None => TcpClient::connect_with_timeout(self.addr, self.connect_timeout)?,
        };
        client.set_io_timeout(Some(io_timeout.max(MIN_IO_TIMEOUT)))?;
        Ok(client)
    }

    /// Return a connection after a clean request/reply exchange. Dropped on
    /// the floor when the pool is full.
    pub fn put(&self, client: TcpClient) {
        let mut idle = self.idle.lock().expect("pool lock poisoned");
        if idle.len() < self.capacity {
            idle.push(client);
        }
    }

    /// Drop every idle connection (e.g. after the replica was demoted — a
    /// recovered replica gets fresh dials, not sockets that died with it).
    pub fn clear(&self) {
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
        let pool = ClientPool::new(addr, Duration::from_secs(1), 1);
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
        let pool = ClientPool::new(addr, Duration::from_secs(1), 2);
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
        let pool = ClientPool::new(addr, Duration::from_secs(1), 4);
        let c = pool.get(Duration::from_millis(50)).expect("dial");
        let _s = l.accept().expect("accept");
        pool.put(c);
        assert_eq!(idle_len(&pool), 1);
        pool.clear();
        assert_eq!(idle_len(&pool), 0);
    }
}
