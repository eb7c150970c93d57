//! The one outbound wire exchange: the failover client
//! ([`crate::client`]) and every peer RPC of the cluster layer
//! ([`crate::cluster`]) — forwarding, replication, fetch and
//! anti-entropy — go through [`Pool::exchange`].
//!
//! One exchange carries one request line and one reply line over a
//! **held-open connection**. Each owner (a `ClusterClient`, a
//! `Cluster`) holds its own [`Pool`] of idle streams per peer address,
//! so dropping the owner closes its streams. An exchange reuses an idle
//! stream only after a non-blocking `peek` shows the peer has not
//! closed it (on EOF, stray bytes or an error the stream is dropped and
//! a fresh one dialed). A stream goes back to the pool only after a
//! complete `\n`-terminated reply with nothing read past it, and at
//! most [`MAX_IDLE_PER_ADDR`] wait per address.
//!
//! The request and its `\n` leave in a single write with `TCP_NODELAY`
//! set, so no segment waits on Nagle's algorithm for a delayed ACK from
//! the server. Retry policy, failure counters and events stay with the
//! callers: a failure drops the stream and is returned as it happened,
//! and nothing is resent, so callers see the same request sequence as
//! with one connection per exchange.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Error, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Idle streams kept per peer address; a stream returned beyond the cap
/// is closed.
pub(crate) const MAX_IDLE_PER_ADDR: usize = 4;

/// One owner's held-open connections, keyed by peer address.
pub(crate) struct Pool {
    connect_timeout: Duration,
    io_timeout: Duration,
    idle: Mutex<HashMap<String, Vec<TcpStream>>>,
}

impl Pool {
    /// An empty pool whose dials and reads use these timeouts.
    pub(crate) fn new(connect_timeout: Duration, io_timeout: Duration) -> Pool {
        Pool {
            connect_timeout,
            io_timeout,
            idle: Mutex::new(HashMap::new()),
        }
    }

    /// Sends `line` to `addr` (`host:port` as a socket address) and
    /// returns the first reply line without its line terminator. A
    /// reply cut off at EOF without a `\n` is still returned (its stream
    /// is not reused); a peer that closes before sending anything is
    /// [`ErrorKind::UnexpectedEof`].
    pub(crate) fn exchange(&self, addr: &str, line: &str) -> std::io::Result<String> {
        let stream = match self.checkout(addr) {
            Some(stream) => stream,
            None => self.dial(addr)?,
        };
        let mut request = Vec::with_capacity(line.len() + 1);
        request.extend_from_slice(line.as_bytes());
        request.push(b'\n');
        (&stream).write_all(&request)?;
        let mut reader = BufReader::new(&stream);
        let mut reply = String::new();
        if reader.read_line(&mut reply)? == 0 {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed before reply",
            ));
        }
        let reusable = reply.ends_with('\n') && reader.buffer().is_empty();
        drop(reader);
        if reusable {
            self.checkin(addr, stream);
        }
        reply.truncate(reply.trim_end_matches(['\n', '\r']).len());
        Ok(reply)
    }

    fn dial(&self, addr: &str) -> std::io::Result<TcpStream> {
        let target: SocketAddr = addr.parse().map_err(|e| {
            Error::new(
                ErrorKind::InvalidInput,
                format!("bad address {addr:?}: {e}"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&target, self.connect_timeout)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// The most recently returned idle stream to `addr` that is still
    /// open; closed ones are dropped on the way.
    fn checkout(&self, addr: &str) -> Option<TcpStream> {
        loop {
            let stream = self.lock().get_mut(addr)?.pop()?;
            if still_open(&stream) {
                return Some(stream);
            }
        }
    }

    fn checkin(&self, addr: &str, stream: TcpStream) {
        let mut idle = self.lock();
        let streams = idle.entry(addr.to_string()).or_default();
        if streams.len() < MAX_IDLE_PER_ADDR {
            streams.push(stream);
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Vec<TcpStream>>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Whether an idle stream can carry another request: nothing is
/// waiting to be read (a peer's close shows as EOF, and stray bytes
/// would be mistaken for the next reply).
fn still_open(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let idle = matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
    idle && stream.set_nonblocking(false).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn pool() -> Pool {
        Pool::new(TIMEOUT, TIMEOUT)
    }

    impl Pool {
        fn idle_count(&self, addr: &str) -> usize {
            self.lock().get(addr).map_or(0, Vec::len)
        }
    }

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

    /// What the multi-connection fake peer does with a request: the
    /// bytes it answers with, and whether it then closes the connection.
    type Script = fn(usize) -> (&'static [u8], bool);

    /// A fake peer serving every connection on a thread of its own,
    /// answering the `n`-th request line (0-based, across connections)
    /// as `script(n)` says. It counts accepts, request lines, and
    /// connections the client closed (EOF before the next line).
    struct CountingPeer {
        addr: String,
        accepts: Arc<AtomicUsize>,
        lines: Arc<AtomicUsize>,
        eofs: Arc<AtomicUsize>,
        closed: Arc<AtomicUsize>,
    }

    impl CountingPeer {
        fn spawn(script: Script) -> CountingPeer {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let peer = CountingPeer {
                addr: listener.local_addr().unwrap().to_string(),
                accepts: Arc::default(),
                lines: Arc::default(),
                eofs: Arc::default(),
                closed: Arc::default(),
            };
            let (accepts, lines, eofs, closed) = (
                Arc::clone(&peer.accepts),
                Arc::clone(&peer.lines),
                Arc::clone(&peer.eofs),
                Arc::clone(&peer.closed),
            );
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { return };
                    accepts.fetch_add(1, Ordering::SeqCst);
                    let (lines, eofs, closed) =
                        (Arc::clone(&lines), Arc::clone(&eofs), Arc::clone(&closed));
                    std::thread::spawn(move || {
                        let mut reader = BufReader::new(&stream);
                        loop {
                            let mut line = String::new();
                            match reader.read_line(&mut line) {
                                Ok(0) => {
                                    eofs.fetch_add(1, Ordering::SeqCst);
                                    return;
                                }
                                Ok(_) => {}
                                Err(_) => return,
                            }
                            let n = lines.fetch_add(1, Ordering::SeqCst);
                            let (reply, close) = script(n);
                            if (&stream).write_all(reply).is_err() {
                                return;
                            }
                            if close {
                                drop(reader);
                                drop(stream);
                                closed.fetch_add(1, Ordering::SeqCst);
                                return;
                            }
                        }
                    });
                }
            });
            peer
        }
    }

    /// Waits up to 5 s for `counter` to reach `want`.
    fn wait_for(counter: &AtomicUsize, want: usize) {
        let started = Instant::now();
        while counter.load(Ordering::SeqCst) < want {
            assert!(
                started.elapsed() < TIMEOUT,
                "counter stuck at {}",
                counter.load(Ordering::SeqCst)
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn sends_exactly_one_line_and_returns_one_reply_line() {
        let line = r#"{"op":"stats","id":1}"#;
        let (addr, peer) = fake_peer(b"{\"ok\":true}\r\n{\"extra\":1}\n");
        let pool = pool();
        let reply = pool.exchange(&addr, line).unwrap();
        assert_eq!(reply, r#"{"ok":true}"#, "only the first reply line");
        let received = peer.join().unwrap();
        assert_eq!(received.line, format!("{line}\n"));
        assert!(received.extra.is_empty(), "sent more: {:?}", received.extra);
        assert_eq!(
            pool.idle_count(&addr),
            0,
            "bytes past the reply: not pooled"
        );
    }

    #[test]
    fn a_peer_closing_first_is_unexpected_eof() {
        let (addr, peer) = fake_peer(b"");
        let err = pool().exchange(&addr, "ping").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        peer.join().unwrap();
    }

    #[test]
    fn a_reply_cut_at_eof_without_a_newline_is_returned() {
        let (addr, peer) = fake_peer(b"{\"ok\":true}");
        let pool = pool();
        assert_eq!(pool.exchange(&addr, "ping").unwrap(), r#"{"ok":true}"#);
        assert_eq!(pool.idle_count(&addr), 0);
        peer.join().unwrap();
    }

    #[test]
    fn bad_addresses_and_dead_peers_are_io_errors() {
        let err = pool().exchange("not-an-address", "ping").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        // Nothing listens on the reserved port 1.
        let fast = Pool::new(Duration::from_millis(50), TIMEOUT);
        assert!(fast.exchange("127.0.0.1:1", "ping").is_err());
    }

    #[test]
    fn exchanges_through_one_pool_share_one_connection() {
        let peer = CountingPeer::spawn(|_| (b"{\"ok\":true}\n", false));
        let pool = pool();
        for _ in 0..20 {
            assert_eq!(pool.exchange(&peer.addr, "ping").unwrap(), r#"{"ok":true}"#);
        }
        assert_eq!(peer.accepts.load(Ordering::SeqCst), 1);
        assert_eq!(peer.lines.load(Ordering::SeqCst), 20);
        assert_eq!(pool.idle_count(&peer.addr), 1);
    }

    #[test]
    fn a_peer_closing_after_its_reply_is_redialed() {
        let peer = CountingPeer::spawn(|_| (b"{\"ok\":true}\n", true));
        let pool = pool();
        for round in 1..=3 {
            assert_eq!(pool.exchange(&peer.addr, "ping").unwrap(), r#"{"ok":true}"#);
            wait_for(&peer.closed, round);
        }
        assert_eq!(peer.accepts.load(Ordering::SeqCst), 3);
        assert_eq!(peer.lines.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn the_idle_cap_holds() {
        let peer = CountingPeer::spawn(|_| (b"{\"ok\":true}\n", false));
        let pool = pool();
        for _ in 0..MAX_IDLE_PER_ADDR + 3 {
            let stream = pool.dial(&peer.addr).unwrap();
            pool.checkin(&peer.addr, stream);
        }
        assert_eq!(pool.idle_count(&peer.addr), MAX_IDLE_PER_ADDR);
        // The streams beyond the cap were closed, not leaked.
        wait_for(&peer.eofs, 3);
    }

    #[test]
    fn dropping_the_pool_closes_its_idle_streams() {
        let peer = CountingPeer::spawn(|_| (b"{\"ok\":true}\n", false));
        let pool = pool();
        pool.exchange(&peer.addr, "ping").unwrap();
        assert_eq!(pool.idle_count(&peer.addr), 1);
        assert_eq!(peer.eofs.load(Ordering::SeqCst), 0);
        drop(pool);
        wait_for(&peer.eofs, 1);
    }

    #[test]
    fn a_failure_on_a_reused_stream_is_returned_and_nothing_is_resent() {
        // The second request is read and dropped without a reply.
        let peer = CountingPeer::spawn(|n| match n {
            1 => (b"", true),
            _ => (b"{\"ok\":true}\n", false),
        });
        let pool = pool();
        pool.exchange(&peer.addr, "first").unwrap();
        let err = pool.exchange(&peer.addr, "second").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert_eq!(
            pool.idle_count(&peer.addr),
            0,
            "the failed stream is dropped"
        );
        // The next exchange dials the second connection. The peer accepts
        // in order, so a resend of "second" on a fresh connection would
        // already have been counted as one more accept.
        pool.exchange(&peer.addr, "third").unwrap();
        assert_eq!(peer.accepts.load(Ordering::SeqCst), 2, "no resend");
        assert_eq!(peer.lines.load(Ordering::SeqCst), 3);
    }
}
