//! The one outbound wire exchange: the failover client
//! ([`crate::client`]) and every peer RPC of the cluster layer
//! ([`crate::cluster`]) — forwarding, replication, fetch and
//! anti-entropy — dial through [`exchange`].
//!
//! One exchange is one fresh connection carrying one request line and
//! one reply line. The request and its `\n` leave in a single write with
//! `TCP_NODELAY` set, so no segment waits on Nagle's algorithm for a
//! delayed ACK from the server. Retry policy, failure counters and
//! events stay with the callers: this function only reports what
//! happened on the wire.

use std::io::{BufRead, BufReader, Error, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends `line` to `addr` (`host:port` as a socket address) and returns
/// the first reply line without its line terminator. A reply cut off at
/// EOF without a `\n` is still returned; a peer that closes before
/// sending anything is [`ErrorKind::UnexpectedEof`].
pub(crate) fn exchange(
    addr: &str,
    line: &str,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> std::io::Result<String> {
    let target: SocketAddr = addr.parse().map_err(|e| {
        Error::new(
            ErrorKind::InvalidInput,
            format!("bad address {addr:?}: {e}"),
        )
    })?;
    let stream = TcpStream::connect_timeout(&target, connect_timeout)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    stream.set_nodelay(true)?;
    let mut request = Vec::with_capacity(line.len() + 1);
    request.extend_from_slice(line.as_bytes());
    request.push(b'\n');
    (&stream).write_all(&request)?;
    let mut reply = String::new();
    if BufReader::new(&stream).read_line(&mut reply)? == 0 {
        return Err(Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed before reply",
        ));
    }
    reply.truncate(reply.trim_end_matches(['\n', '\r']).len());
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    const TIMEOUT: Duration = Duration::from_secs(5);

    /// What a one-connection fake peer saw: the first request line (with
    /// its `\n`) and whatever else the client sent within 100 ms of it.
    struct Received {
        line: String,
        extra: Vec<u8>,
    }

    /// Accepts one connection, reads one line and any trailing bytes,
    /// answers with `reply`, and closes.
    fn fake_peer(reply: &'static [u8]) -> (String, std::thread::JoinHandle<Received>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(TIMEOUT)).unwrap();
            let mut reader = BufReader::new(&stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            let mut extra = reader.buffer().to_vec();
            let mut buf = [0u8; 64];
            while let Ok(n @ 1..) = (&stream).read(&mut buf) {
                extra.extend_from_slice(&buf[..n]);
            }
            (&stream).write_all(reply).unwrap();
            Received { line, extra }
        });
        (addr, peer)
    }

    #[test]
    fn sends_exactly_one_line_and_returns_one_reply_line() {
        let line = r#"{"op":"stats","id":1}"#;
        let (addr, peer) = fake_peer(b"{\"ok\":true}\r\n{\"extra\":1}\n");
        let reply = exchange(&addr, line, TIMEOUT, TIMEOUT).unwrap();
        assert_eq!(reply, r#"{"ok":true}"#, "only the first reply line");
        let received = peer.join().unwrap();
        assert_eq!(received.line, format!("{line}\n"));
        assert!(received.extra.is_empty(), "sent more: {:?}", received.extra);
    }

    #[test]
    fn a_peer_closing_first_is_unexpected_eof() {
        let (addr, peer) = fake_peer(b"");
        let err = exchange(&addr, "ping", TIMEOUT, TIMEOUT).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        peer.join().unwrap();
    }

    #[test]
    fn a_reply_cut_at_eof_without_a_newline_is_returned() {
        let (addr, peer) = fake_peer(b"{\"ok\":true}");
        assert_eq!(
            exchange(&addr, "ping", TIMEOUT, TIMEOUT).unwrap(),
            r#"{"ok":true}"#
        );
        peer.join().unwrap();
    }

    #[test]
    fn bad_addresses_and_dead_peers_are_io_errors() {
        let err = exchange("not-an-address", "ping", TIMEOUT, TIMEOUT).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        // Nothing listens on the reserved port 1.
        assert!(exchange("127.0.0.1:1", "ping", Duration::from_millis(50), TIMEOUT).is_err());
    }
}
