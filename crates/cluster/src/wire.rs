//! The degraded-response extension to the `rambo-server` frame format.
//!
//! The coordinator front speaks [`rambo_server::wire`] — the *same*
//! length-prefixed protocol as a single `rambo-server` node, so a plain
//! [`rambo_server::TcpClient`] works against it unmodified for healthy
//! replies. One extension lives here: when some shards were unreachable the
//! coordinator answers with status [`STATUS_DEGRADED`], which carries the
//! normal response layout followed by the list of missing shard ids:
//!
//! ```text
//! degraded-response := u32 len | u8 status(=4) | u32 tier | u32 n_docs
//!                      | n_docs × u32 | u32 n_down | n_down × u32 shard-ids
//! ```
//!
//! A protocol-unaware client treats status 4 as an unknown error; a
//! [`crate::ClusterClient`] surfaces the partial answer plus the missing
//! shards.

use rambo_server::wire;

/// Response status (cluster extension): partial answer, some shards
/// unreachable.
pub const STATUS_DEGRADED: u8 = 4;

/// Append a degraded response: the partial answer plus the unreachable
/// shard ids.
pub fn encode_degraded_response(out: &mut Vec<u8>, tier: u32, docs: &[u32], down_shards: &[u32]) {
    let start = out.len();
    wire::encode_response(out, STATUS_DEGRADED, tier, docs);
    out.extend_from_slice(&(down_shards.len() as u32).to_le_bytes());
    out.extend(down_shards.iter().flat_map(|s| s.to_le_bytes()));
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decode what follows the document list of a response with `status`
/// ([`wire::Response::tail`]): the unreachable shard ids of a degraded
/// response, nothing for any other.
///
/// # Errors
/// A human-readable description of the malformation.
pub fn parse_down_shards(status: u8, tail: &[u8]) -> Result<Vec<u32>, String> {
    if status != STATUS_DEGRADED {
        return if tail.is_empty() {
            Ok(Vec::new())
        } else {
            Err("response length disagrees with document count".into())
        };
    }
    let Some((count, ids)) = tail.split_first_chunk::<4>() else {
        return Err("degraded response missing the down-shard count".into());
    };
    if (u32::from_le_bytes(*count) as usize).checked_mul(4) != Some(ids.len()) {
        return Err("degraded response length disagrees with down-shard count".into());
    }
    Ok(ids
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(payload: &[u8]) -> Result<(Vec<u32>, Vec<u32>), String> {
        let reply = wire::parse_response(payload)?;
        Ok((parse_down_shards(reply.status, reply.tail)?, reply.docs))
    }

    #[test]
    fn degraded_response_roundtrip() {
        let mut frame = vec![7]; // an earlier reply
        encode_degraded_response(&mut frame, 2, &[5, 9, 70], &[1, 3]);
        assert_eq!(wire::frame(&frame[5..]), frame[1..], "length prefix");
        let reply = wire::parse_response(&frame[5..]).expect("parse");
        assert_eq!((reply.status, reply.tier), (STATUS_DEGRADED, 2));
        assert_eq!(parse(&frame[5..]).unwrap(), (vec![1, 3], vec![5, 9, 70]));
    }

    #[test]
    fn rejects_truncated_and_trailing_bytes() {
        let (mut frame, mut ok) = (Vec::new(), Vec::new());
        encode_degraded_response(&mut frame, 0, &[1], &[2]);
        for cut in 5..frame.len() - 1 {
            assert!(parse(&frame[4..cut]).is_err(), "cut at {cut}");
        }
        wire::encode_response(&mut ok, wire::STATUS_OK, 0, &[1]);
        assert_eq!(parse(&ok[4..]).unwrap(), (vec![], vec![1]));
        ok.push(0); // a trailing byte
        assert!(parse(&ok[4..]).is_err());
    }
}
