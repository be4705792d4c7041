//! Cluster-aware client: a [`TcpClient`] that also understands degraded
//! replies.
//!
//! A plain [`TcpClient`] works against the coordinator for healthy
//! answers (the front speaks the standard protocol) but reports status 4
//! as an unknown status; this wrapper surfaces the partial answer and the
//! missing shard list instead.

use crate::coordinator::ClusterReply;
use crate::wire::{parse_down_shards, STATUS_DEGRADED};
use rambo_server::wire::{
    encode_query_request, parse_response, STATUS_BAD_REQUEST, STATUS_DEADLINE, STATUS_OK,
};
use rambo_server::{ServerError, TcpClient, TcpClientError};
use std::io;
use std::net::ToSocketAddrs;
use std::time::Duration;

/// Blocking client for a [`crate::Coordinator`] front.
#[derive(Debug)]
pub struct ClusterClient {
    inner: TcpClient,
}

impl ClusterClient {
    /// Connect to a coordinator front.
    ///
    /// # Errors
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self {
            inner: TcpClient::connect(addr)?,
        })
    }

    /// Connect with a bound on connection establishment.
    ///
    /// # Errors
    /// See [`TcpClient::connect_with_timeout`].
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        Ok(Self {
            inner: TcpClient::connect_with_timeout(addr, timeout)?,
        })
    }

    /// Bound every read and write on the connection.
    ///
    /// # Errors
    /// See [`TcpClient::set_io_timeout`].
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_io_timeout(timeout)
    }

    /// Query the cluster. A degraded answer (some shards unreachable) is a
    /// *successful* call with [`ClusterReply::degraded`] non-empty — the
    /// caller decides whether a partial answer is acceptable.
    ///
    /// # Errors
    /// [`TcpClientError::Server`] for a deadline rejection,
    /// [`TcpClientError::Io`]/[`TcpClientError::Protocol`] on transport or
    /// framing failures.
    pub fn query(
        &mut self,
        terms: &[u64],
        fpr_budget: f64,
        deadline: Duration,
    ) -> Result<ClusterReply, TcpClientError> {
        let frame = encode_query_request(terms, fpr_budget, deadline);
        let payload = self.inner.exchange(&frame)?;
        let parsed = parse_response(&payload).map_err(TcpClientError::Protocol)?;
        let degraded =
            parse_down_shards(parsed.status, parsed.tail).map_err(TcpClientError::Protocol)?;
        let tier = parsed.tier as usize;
        match parsed.status {
            STATUS_OK | STATUS_DEGRADED => Ok(ClusterReply {
                docs: parsed.docs,
                tier,
                degraded,
            }),
            STATUS_DEADLINE => Err(TcpClientError::Server(ServerError::DeadlineExceeded {
                tier,
            })),
            STATUS_BAD_REQUEST => Err(TcpClientError::Protocol(
                "coordinator reported a bad request".into(),
            )),
            other => Err(TcpClientError::Protocol(format!(
                "unknown response status {other}"
            ))),
        }
    }

    /// Fetch the coordinator's plain-text [`crate::ClusterStats`] dump.
    ///
    /// # Errors
    /// See [`TcpClient::stats`].
    pub fn stats(&mut self) -> Result<String, TcpClientError> {
        self.inner.stats()
    }
}
