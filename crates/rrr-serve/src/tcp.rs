//! The TCP front end: line-delimited JSON over a plain `TcpListener`.
//!
//! One accept thread polls a non-blocking listener (so shutdown never
//! hangs in `accept`); each connection gets its own handler thread reading
//! newline-terminated requests and writing one response line per request.
//! Everything is answered from the [`ServeHandle`]'s current snapshot, so
//! connection handlers never touch the detector and a slow client cannot
//! stall ingestion.
//!
//! A malformed line — including one nested deeper than
//! [`MAX_DEPTH`](crate::wire::MAX_DEPTH) — produces an `{"error": ...}` line
//! and the connection stays open; EOF from the client closes it. A reply is
//! one `write_all` of body plus newline on a `TCP_NODELAY` socket: split in
//! two on a Nagle socket, the newline would wait for the client's delayed
//! ACK (~40 ms a round trip for a client that sends one request at a time).
//! A request is at most [`MAX_REQUEST`] bytes: a line that runs past it
//! gets one `{"error": ...}` line and the connection is closed, so a client
//! that never sends a newline cannot grow the daemon. The accept loop drops
//! the handles of handlers that have finished whenever it adds one, so the
//! list holds the open connections, not every connection ever made.
//! A client that stops reading its replies is closed on once a reply has
//! made no progress into its socket for a second (`WRITE_STALL`), so no
//! handler waits on a client for longer than that. At most [`MAX_CONNS`]
//! connections are served at once — a handler is a thread: a connection
//! arriving past that gets one `{"error": ...}` line and is closed, and is
//! welcome again once a client has left. [`TcpServer::shutdown`] stops
//! accepting, wakes the handlers, and joins every thread.

use crate::snapshot::ServeHandle;
use crate::wire::{decode_request, encode_error, encode_response};
use rrr_types::Error;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const POLL: Duration = Duration::from_millis(10);

/// Longest request line accepted, newline not counted.
pub const MAX_REQUEST: usize = 64 * 1024;

/// Most connections served at once, counted as handler threads that have
/// not finished.
pub const MAX_CONNS: usize = 256;

/// How long the rest of an oversized request is read and dropped before
/// the connection is closed on it.
const DRAIN: Duration = Duration::from_secs(1);

/// How long a reply may sit unwritten, the client's socket full, before the
/// connection is closed on it.
const WRITE_STALL: Duration = Duration::from_secs(1);

/// A running TCP query server.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port; the bound address
    /// is available via [`TcpServer::addr`]) and starts serving queries
    /// from `handle`'s snapshots.
    pub fn bind(addr: &str, handle: ServeHandle) -> Result<TcpServer, Error> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();

        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("rrr-accept".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((socket, _)) => {
                                let mut conns = conns.lock().expect("conns lock");
                                conns.retain(|t| !t.is_finished());
                                if conns.len() >= MAX_CONNS {
                                    refuse_over_cap(socket);
                                    continue;
                                }
                                let handle = handle.clone();
                                let stop = Arc::clone(&stop);
                                // Out of threads: the socket went into the
                                // closure, so that connection is closed; the
                                // ones being served carry on.
                                if let Ok(t) = std::thread::Builder::new()
                                    .name("rrr-conn".into())
                                    .spawn(move || serve_conn(socket, handle, stop))
                                {
                                    conns.push(t);
                                }
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                                std::thread::sleep(POLL);
                            }
                            // Listener died (e.g. interface gone): stop
                            // accepting; existing connections keep serving.
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(TcpServer { addr: local, stop, accept: Some(accept), conns })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection handlers not yet reaped: the open connections plus
    /// whatever finished since the last accept.
    #[cfg(test)]
    fn handlers(&self) -> usize {
        self.conns.lock().expect("conns lock").len()
    }

    /// Stops accepting, drains every connection handler, and joins all
    /// server threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for t in conns {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_conn(socket: TcpStream, handle: ServeHandle, stop: Arc<AtomicBool>) {
    // Read with a timeout so the handler notices `stop` even while a
    // client holds the connection open silently.
    let _ = socket.set_read_timeout(Some(POLL));
    // Without this a client that sends requests and never reads parks the
    // handler inside `write_all` for good, and `shutdown` with it. When it
    // fires part of a reply may be out, so the connection is closed.
    if socket.set_write_timeout(Some(WRITE_STALL)).is_err() {
        return;
    }
    let _ = socket.set_nodelay(true);
    let mut writer = match socket.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(socket);
    let mut line = String::new();
    while !stop.load(Ordering::Acquire) {
        // One byte of room past the cap tells a full-length request (its
        // newline lands there) from one that runs on.
        let room = (MAX_REQUEST + 1).saturating_sub(line.len()) as u64;
        let read = (&mut reader).take(room).read_line(&mut line);
        if line.len() > MAX_REQUEST && !line.ends_with('\n') {
            return refuse_oversized(reader, writer, &stop);
        }
        match read {
            Ok(0) => return, // client closed
            Ok(_) => {
                let request = line.trim();
                if !request.is_empty() {
                    let mut out = match decode_request(request) {
                        Ok(q) => encode_response(&handle.query(&q)),
                        Err(e) => encode_error(&e),
                    };
                    out.push('\n');
                    if writer.write_all(out.as_bytes()).is_err() {
                        return;
                    }
                }
                line.clear();
            }
            // A timeout in the middle of a line keeps what `read_line` has
            // appended so far; the next call continues the same request.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => return,
        }
    }
}

/// Turns away a connection that arrived with [`MAX_CONNS`] already open:
/// one error line, write side shut, closed. This runs on the accept thread,
/// so nothing here waits — the line fits any fresh socket's send buffer,
/// and whatever the client had already sent is not read (if it sent
/// something, the close may reach it as a reset ahead of the line).
fn refuse_over_cap(mut socket: TcpStream) {
    let err = Error::protocol(format!("server is at its limit of {MAX_CONNS} connections"));
    let mut out = encode_error(&err);
    out.push('\n');
    let _ = socket.set_nodelay(true);
    if socket.write_all(out.as_bytes()).is_ok() {
        let _ = socket.shutdown(Shutdown::Write);
    }
}

/// Answers a request that ran past [`MAX_REQUEST`] with one error line and
/// hangs up. What the client is still sending is read and dropped for up to
/// [`DRAIN`] first: closing a socket with unread input resets the
/// connection, and the reset can overtake the error line.
fn refuse_oversized(mut reader: BufReader<TcpStream>, mut writer: TcpStream, stop: &AtomicBool) {
    let err = Error::protocol(format!("request longer than {MAX_REQUEST} bytes"));
    let mut out = encode_error(&err);
    out.push('\n');
    if writer.write_all(out.as_bytes()).is_err() || writer.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + DRAIN;
    let mut sink = [0u8; 8192];
    while Instant::now() < deadline && !stop.load(Ordering::Acquire) {
        match reader.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonConfig, Engine};
    use crate::feed::ScriptedFeed;
    use rrr_core::DetectorBuilder;

    #[test]
    fn serves_queries_over_tcp_and_shuts_down_cleanly() {
        // Tiny-world detector: structure of the protocol is what's under
        // test here; end-to-end content equivalence lives in rrr-sim.
        let topo =
            std::sync::Arc::new(rrr_topology::generate(&rrr_topology::TopologyConfig::small(3)));
        let alias = rrr_ip2as::AliasResolver::from_topology(&topo, 1.0, 0);
        let det = DetectorBuilder::new().seed(7).build(
            topo,
            rrr_ip2as::IpToAsMap::new(),
            rrr_geo::Geolocator::new(rrr_geo::GeoDb::default(), vec![]),
            alias,
            vec![],
        );
        let daemon = Daemon::spawn(
            Engine::Plain(det),
            vec![Box::new(ScriptedFeed::default())],
            DaemonConfig::default(),
        );
        let mut server = TcpServer::bind("127.0.0.1:0", daemon.handle()).expect("bind");

        let mut client = TcpStream::connect(server.addr()).expect("connect");
        client
            .write_all(b"{\"query\":\"corpus_summary\"}\nnot json\n{\"query\":\"monitor_stats\"}\n")
            .expect("send");
        let mut lines = BufReader::new(client.try_clone().expect("clone")).lines();
        let ok = lines.next().expect("line").expect("read");
        assert!(ok.contains("\"epoch\""), "{ok}");
        assert!(ok.contains("corpus_summary"), "{ok}");
        let err = lines.next().expect("line").expect("read");
        assert!(err.contains("\"error\""), "{err}");
        let ok2 = lines.next().expect("line").expect("read");
        assert!(ok2.contains("monitor_stats"), "{ok2}");
        drop(lines);

        server.shutdown();
        server.shutdown(); // idempotent
        let report = daemon.join().expect("drained");
        assert_eq!(report.rounds, 0);
    }

    /// An idle daemon over a tiny-world detector, and a server on it.
    fn idle_server() -> (Daemon, TcpServer) {
        idle_server_with(DaemonConfig::default())
    }

    fn idle_server_with(cfg: DaemonConfig) -> (Daemon, TcpServer) {
        let topo =
            std::sync::Arc::new(rrr_topology::generate(&rrr_topology::TopologyConfig::small(3)));
        let alias = rrr_ip2as::AliasResolver::from_topology(&topo, 1.0, 0);
        let det = DetectorBuilder::new().seed(7).build(
            topo,
            rrr_ip2as::IpToAsMap::new(),
            rrr_geo::Geolocator::new(rrr_geo::GeoDb::default(), vec![]),
            alias,
            vec![],
        );
        let daemon =
            Daemon::spawn(Engine::Plain(det), vec![Box::new(ScriptedFeed::default())], cfg);
        let server = TcpServer::bind("127.0.0.1:0", daemon.handle()).expect("bind");
        (daemon, server)
    }

    #[test]
    fn sequential_round_trips_do_not_wait_for_delayed_acks() {
        let (daemon, mut server) = idle_server();
        let mut client = TcpStream::connect(server.addr()).expect("connect");
        let mut replies = BufReader::new(client.try_clone().expect("clone"));
        let started = std::time::Instant::now();
        let mut reply = String::new();
        for _ in 0..50 {
            client.write_all(b"{\"query\":\"corpus_summary\"}\n").expect("send");
            reply.clear();
            replies.read_line(&mut reply).expect("read");
            assert!(reply.contains("corpus_summary") && reply.ends_with('\n'), "{reply}");
        }
        // A reply split across two segments costs a delayed ACK (~40 ms)
        // per round trip: 2 s and more for these fifty.
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "50 sequential round trips took {took:?}");
        server.shutdown();
        daemon.join().expect("drained");
    }

    #[test]
    fn oversized_request_is_refused_and_closed_while_others_are_served() {
        let (daemon, mut server) = idle_server();
        let mut hog = TcpStream::connect(server.addr()).expect("connect");
        let mut other = TcpStream::connect(server.addr()).expect("connect");
        let mut other_replies = BufReader::new(other.try_clone().expect("clone"));

        // A megabyte with no newline in it. The server hangs up partway,
        // so the write may fail; the reply is what counts.
        let mut hog_replies = BufReader::new(hog.try_clone().expect("clone"));
        let sender = std::thread::spawn(move || {
            let _ = hog.write_all(&vec![b'x'; 1 << 20]);
            hog
        });
        let mut reply = String::new();
        hog_replies.read_line(&mut reply).expect("read");
        assert!(reply.contains("\"error\"") && reply.contains("longer than"), "{reply}");
        reply.clear();
        assert_eq!(hog_replies.read_line(&mut reply).expect("eof"), 0, "closed after the error");
        drop(sender.join().expect("sender"));

        // A line of exactly the cap is still a request (here a blank one,
        // which gets no reply), and the connection goes on being served.
        let mut full = vec![b' '; MAX_REQUEST];
        full.push(b'\n');
        for request in [&full[..], b"{\"query\":\"corpus_summary\"}\n"] {
            other.write_all(request).expect("send");
        }
        reply.clear();
        other_replies.read_line(&mut reply).expect("read");
        assert!(reply.contains("corpus_summary") && !reply.contains("\"error\""), "{reply}");
        server.shutdown();
        daemon.join().expect("drained");
    }

    #[test]
    fn deeply_nested_request_gets_an_error_line_and_the_server_lives_on() {
        let (daemon, mut server) = idle_server();
        let mut client = TcpStream::connect(server.addr()).expect("connect");
        let mut line = "[".repeat(10_000);
        line.push('\n');
        client.write_all(line.as_bytes()).expect("send");
        client.shutdown(Shutdown::Write).expect("half-close");
        let replies: Vec<String> =
            BufReader::new(client).lines().map(|l| l.expect("read")).collect();
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert!(replies[0].contains("\"error\"") && replies[0].contains("nesting"), "{replies:?}");

        let mut next = TcpStream::connect(server.addr()).expect("connect");
        next.write_all(b"{\"query\":\"monitor_stats\"}\n").expect("send");
        let mut reply = String::new();
        BufReader::new(&next).read_line(&mut reply).expect("read");
        assert!(reply.contains("monitor_stats"), "{reply}");
        server.shutdown();
        daemon.join().expect("drained");
    }

    #[test]
    fn finished_handlers_are_reaped_as_connections_come_and_go() {
        let (daemon, mut server) = idle_server();
        for _ in 0..200 {
            let mut client = TcpStream::connect(server.addr()).expect("connect");
            client.write_all(b"{\"query\":\"monitor_stats\"}\n").expect("send");
            let mut reply = String::new();
            BufReader::new(&client).read_line(&mut reply).expect("read");
            assert!(reply.contains("monitor_stats"), "{reply}");
        }
        // A handler notices its client left within a read timeout or so;
        // the accept that follows drops its handle.
        let handlers = server.handlers();
        assert!(handlers < 20, "{handlers} handles kept after 200 closed connections");
        server.shutdown();
        daemon.join().expect("drained");
    }

    #[test]
    fn connection_past_the_cap_is_refused_and_a_freed_slot_is_reused() {
        let (daemon, mut server) = idle_server();
        let ask = |client: &mut TcpStream| {
            client.write_all(b"{\"query\":\"monitor_stats\"}\n").expect("send");
            let mut reply = String::new();
            BufReader::new(&*client).read_line(&mut reply).expect("read");
            reply
        };
        // Each is answered before the next connects, so all MAX_CONNS
        // handlers are up when the one too many arrives.
        let mut clients: Vec<TcpStream> = (0..MAX_CONNS)
            .map(|_| {
                let mut client = TcpStream::connect(server.addr()).expect("connect");
                assert!(ask(&mut client).contains("monitor_stats"));
                client
            })
            .collect();

        let refused = TcpStream::connect(server.addr()).expect("the listener still accepts");
        // Were it served instead, fail here rather than wait for a line.
        refused.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        let mut lines = BufReader::new(refused).lines();
        let line = lines.next().expect("a refusal line").expect("read");
        assert!(line.contains("\"error\"") && line.contains("limit of"), "{line}");
        assert!(lines.next().is_none(), "closed after the one line");

        // The ones already in are still answered, first and last alike.
        assert!(ask(&mut clients[0]).contains("monitor_stats"));
        assert!(ask(&mut clients[MAX_CONNS - 1]).contains("monitor_stats"));

        // One leaves; once its handler has noticed, a newcomer gets the slot.
        drop(clients.pop());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut client = TcpStream::connect(server.addr()).expect("connect");
            client.write_all(b"{\"query\":\"monitor_stats\"}\n").expect("send");
            let mut reply = String::new();
            // A refusal may arrive as the line or, since a request was sent
            // into it, as a reset.
            let _ = BufReader::new(&client).read_line(&mut reply);
            if reply.contains("monitor_stats") {
                break;
            }
            assert!(Instant::now() < deadline, "no slot freed after a client left: {reply}");
            std::thread::sleep(POLL);
        }
        server.shutdown();
        daemon.join().expect("drained");
    }

    #[test]
    fn request_split_across_a_read_timeout_is_answered_whole() {
        let (daemon, mut server) = idle_server();
        let mut client = TcpStream::connect(server.addr()).expect("connect");
        client.set_nodelay(true).expect("nodelay");
        let mut replies = BufReader::new(client.try_clone().expect("clone"));
        client.write_all(b"{\"query\":\"corp").expect("send first half");
        // Three read timeouts of the handler pass with half a line buffered.
        std::thread::sleep(3 * POLL);
        client.write_all(b"us_summary\"}\n").expect("send second half");
        let mut reply = String::new();
        replies.read_line(&mut reply).expect("read");
        assert!(reply.contains("corpus_summary") && !reply.contains("\"error\""), "{reply}");
        // And the connection keeps serving.
        client.write_all(b"{\"query\":\"monitor_stats\"}\n").expect("send");
        reply.clear();
        replies.read_line(&mut reply).expect("read");
        assert!(reply.contains("monitor_stats"), "{reply}");
        server.shutdown();
        daemon.join().expect("drained");
    }

    #[test]
    fn client_that_never_reads_cannot_hold_up_shutdown() {
        // A live registry makes each `metrics` reply a few kilobytes, so
        // the socket buffers fill after a few thousand requests.
        let cfg = DaemonConfig { metrics: rrr_obs::Metrics::enabled(), ..DaemonConfig::default() };
        let (daemon, mut server) = idle_server_with(cfg);
        let mut client = TcpStream::connect(server.addr()).expect("connect");
        client.set_write_timeout(Some(Duration::from_millis(500))).expect("write timeout");
        // Requests go in and no reply is read. Once the handler is stuck
        // writing it stops reading too, and a write here makes no progress
        // for the whole timeout (or fails, once the server has hung up).
        let requests = b"{\"query\":\"metrics\"}\n".repeat(1024);
        while client.write(&requests).is_ok() {}

        let (done, returned) = std::sync::mpsc::channel();
        let shutdown = std::thread::spawn(move || {
            server.shutdown();
            let _ = done.send(());
        });
        returned
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown must not wait on a client that does not read");
        shutdown.join().expect("shutdown thread");
        drop(client);
        daemon.join().expect("drained");
    }
}
