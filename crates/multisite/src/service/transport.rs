//! The socket front-end of the service: a Unix-domain (or TCP)
//! listener where every accepted connection speaks the same NDJSON
//! frame protocol as the stdin/stdout session, concurrently, over one
//! shared [`Server`].
//!
//! The sharing is the point: all connections hit one
//! [`SessionRegistry`], one row store, one [`SolutionCache`], and one
//! bounded admission queue drained by the server's executor pool — so a
//! SOC warmed by one client is warm for the next, identical concurrent
//! requests from different clients coalesce onto a single computation,
//! and admission control is global rather than per-stream. What stays
//! per-connection is exactly what the protocol promises per-stream:
//! response *order* (admission order on that connection, whatever the
//! executor count), cancellation scope (a client can only cancel its
//! own requests), and the final `Bye` frame, whose counters are scoped
//! to the connection and carry a [`ConnectionStats`] identity block.
//!
//! Lifecycle: [`ListenAddr::parse`] → [`BoundListener::bind`] →
//! [`BoundListener::serve`], which accepts until the caller's shutdown
//! flag flips (typically from a `SIGTERM`/`SIGINT` handler), then
//! **drains**: stop accepting, half-close every live socket so readers
//! see EOF, tighten every in-flight cancellation token to a drain
//! deadline ([`TransportConfig::drain_grace`] from now), and wait for
//! each connection to finish with its own `Bye`. Requests that outlive
//! the grace answer `DeadlineExceeded` instead of holding the drain
//! open; a connection that still refuses to finish
//! ([`TransportConfig::drain_margin`] past the grace) is abandoned —
//! counted lost, its socket fully shut down — rather than allowed to
//! wedge the drain. Accepted sockets carry a write timeout
//! ([`TransportConfig::write_timeout`]), so a client that stops reading
//! costs its own connection (dead sink), never the shared executor
//! pool. The row store is persisted once, at drain — not once per
//! connection.
//!
//! The fault harness extends here: `accept`-stage faults fire in the
//! accept loop (a panic refuses that one connection), and
//! `connection`-stage faults fire on the connection's reader thread
//! before the first frame (a panic fails that one connection with a
//! typed `Internal` frame and a clean `Bye`). Both are keyed by the
//! accept ordinal (`"1"`, `"2"`, …) in place of a request id.
//!
//! [`SessionRegistry`]: crate::service::registry::SessionRegistry
//! [`SolutionCache`]: crate::service::cache::SolutionCache
//! [`ConnectionStats`]: crate::service::protocol::ConnectionStats

use crate::service::faults::Stage;
use crate::service::lock;
use crate::service::protocol::ServerStats;
use crate::service::server::{panic_message, Server};
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long the accept loop sleeps when no connection is pending (the
/// listener runs non-blocking so the shutdown flag is observed
/// promptly). Short enough that connection setup and drain latency stay
/// in the low single-digit milliseconds, long enough that an idle
/// listener wakes only a few hundred times a second.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A Unix-domain socket at this path (created at bind, removed at
    /// close).
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:7878` or `localhost:7878` (`:0`
    /// picks a free port — the bound address is echoed by
    /// [`BoundListener::local_addr`]).
    Tcp(String),
}

impl ListenAddr {
    /// Parses a `--listen` operand: anything that parses as a socket
    /// address, or looks like `host:port` (a hostname such as
    /// `localhost:7878` — bind/connect resolve it), is TCP; everything
    /// else is a Unix socket path. A string containing a path separator
    /// is always a path, colons and all.
    ///
    /// # Errors
    ///
    /// Rejects the empty string.
    pub fn parse(text: &str) -> Result<ListenAddr, String> {
        if text.is_empty() {
            return Err("listen address must not be empty".to_string());
        }
        if text.parse::<SocketAddr>().is_ok() || is_host_port(text) {
            Ok(ListenAddr::Tcp(text.to_string()))
        } else {
            Ok(ListenAddr::Unix(PathBuf::from(text)))
        }
    }
}

/// A syntactic `host:port` check for the hostname forms `SocketAddr`
/// rejects: one colon, a non-empty host without path separators, a
/// valid port number. Resolution is left to bind/connect, whose "failed
/// to look up address" beats the file-not-found a misclassified Unix
/// path would give.
fn is_host_port(text: &str) -> bool {
    if text.contains('/') {
        return false;
    }
    match text.rsplit_once(':') {
        Some((host, port)) => {
            !host.is_empty() && !host.contains(':') && port.parse::<u16>().is_ok()
        }
        None => false,
    }
}

impl fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListenAddr::Unix(path) => write!(f, "{}", path.display()),
            ListenAddr::Tcp(addr) => write!(f, "{addr}"),
        }
    }
}

/// Knobs of the socket front-end (the compute knobs live on
/// [`crate::service::ServerConfig`], which the transport shares).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TransportConfig {
    /// How long in-flight requests may keep running once a drain
    /// starts; beyond it their tokens' deadlines fire and they answer
    /// `DeadlineExceeded`.
    pub drain_grace: Duration,
    /// Extra patience beyond the drain grace before a connection is
    /// declared stuck and abandoned: covers the gap between a token's
    /// deadline firing and the engine's next cancellation probe.
    pub drain_margin: Duration,
    /// Write timeout set on every accepted socket (`SO_SNDTIMEO`). A
    /// client that submits requests but stops reading fills the kernel
    /// send buffer; without a timeout the executor flushing that
    /// connection would block indefinitely under the writer lock —
    /// head-of-line blocking for the whole shared pool. A timed-out
    /// write marks the sink dead like any other write error: the
    /// session still drains, the outcome is reported as a lost
    /// connection.
    pub write_timeout: Duration,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            drain_grace: Duration::from_secs(2),
            drain_margin: Duration::from_secs(10),
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// Server-lifetime aggregate across every connection the listener
/// served, reported when [`BoundListener::serve`] returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct TransportStats {
    /// Connections accepted and served to a `Bye` (including failed
    /// ones — every accepted connection ends in exactly one `Bye`).
    pub connections: u64,
    /// Accepts refused by an injected accept-stage panic.
    pub refused_accepts: u64,
    /// Connections whose outcome was lost (sink write error, or stuck
    /// past the drain deadline plus margin).
    pub lost_connections: u64,
    /// Result frames served, summed over all connections.
    pub served: u64,
    /// Error frames answered, summed over all connections.
    pub errors: u64,
    /// The subset of `errors` with kind `internal`, summed over all
    /// connections.
    pub internal_errors: u64,
    /// Module rows persisted by the single drain-time store save.
    pub store_rows_saved: u64,
}

impl TransportStats {
    fn absorb(&mut self, bye: &ServerStats) {
        self.served += bye.served;
        self.errors += bye.errors;
        self.internal_errors += bye.internal_errors;
    }
}

#[derive(Debug)]
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// One accepted socket, unified over both listener kinds. Cloned
/// handles share the descriptor, which is how the reader side, writer
/// side, and drain half-close all reach the same connection.
#[derive(Debug)]
enum ConnStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl ConnStream {
    fn try_clone(&self) -> io::Result<ConnStream> {
        match self {
            ConnStream::Unix(s) => s.try_clone().map(ConnStream::Unix),
            ConnStream::Tcp(s) => s.try_clone().map(ConnStream::Tcp),
        }
    }

    fn shutdown(&self, how: Shutdown) {
        let _ = match self {
            ConnStream::Unix(s) => s.shutdown(how),
            ConnStream::Tcp(s) => s.shutdown(how),
        };
    }

    /// Accepted sockets inherit the listener's non-blocking flag on
    /// some platforms; the per-connection reader wants plain blocking
    /// reads.
    fn set_blocking(&self) -> io::Result<()> {
        match self {
            ConnStream::Unix(s) => s.set_nonblocking(false),
            ConnStream::Tcp(s) => s.set_nonblocking(false),
        }
    }

    /// Arms `SO_SNDTIMEO` — a socket-level option, so one call covers
    /// every cloned handle on the connection.
    fn set_write_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            ConnStream::Unix(s) => s.set_write_timeout(Some(timeout)),
            ConnStream::Tcp(s) => s.set_write_timeout(Some(timeout)),
        }
    }
}

impl Read for ConnStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ConnStream::Unix(s) => s.read(buf),
            ConnStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ConnStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ConnStream::Unix(s) => s.write(buf),
            ConnStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ConnStream::Unix(s) => s.flush(),
            ConnStream::Tcp(s) => s.flush(),
        }
    }
}

/// The client side of the transport: one connected stream to a
/// [`BoundListener`], Unix or TCP — what the `soc-client` binary pipes
/// NDJSON through.
#[derive(Debug)]
pub struct ClientStream(ConnStream);

impl ClientStream {
    /// Connects to a listening server.
    ///
    /// # Errors
    ///
    /// The underlying connect error.
    pub fn connect(addr: &ListenAddr) -> io::Result<ClientStream> {
        match addr {
            ListenAddr::Unix(path) => {
                UnixStream::connect(path).map(|stream| ClientStream(ConnStream::Unix(stream)))
            }
            ListenAddr::Tcp(spec) => {
                TcpStream::connect(spec).map(|stream| ClientStream(ConnStream::Tcp(stream)))
            }
        }
    }

    /// A second handle on the same connection, so one side can write
    /// while the other reads.
    ///
    /// # Errors
    ///
    /// The underlying clone error.
    pub fn try_clone(&self) -> io::Result<ClientStream> {
        self.0.try_clone().map(ClientStream)
    }

    /// Half-closes the write side — the client's "no more frames", which
    /// the server reads as EOF and answers with `Bye`.
    pub fn shutdown_write(&self) {
        self.0.shutdown(Shutdown::Write);
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// A bound, not-yet-serving listener. Binding is split from serving so
/// the caller can announce the actual address (TCP `:0` resolves to a
/// real port here) before the first client connects.
#[derive(Debug)]
pub struct BoundListener {
    listener: Listener,
    display: String,
    /// The Unix socket path to unlink when the listener closes.
    cleanup: Option<PathBuf>,
}

impl BoundListener {
    /// Binds the address and switches the listener to non-blocking
    /// accepts. A Unix path whose previous owner died (the socket file
    /// exists but nothing accepts on it) is silently reclaimed; a path
    /// with a live listener stays `AddrInUse`. The liveness probe is a
    /// real `connect`: the live owner accepts it as an ordinary
    /// connection that immediately closes without a frame — it consumes
    /// one accept ordinal there (shifting `accept`/`connection` fault
    /// keying) and shows up in its drain aggregate as a connection whose
    /// `Bye` went to a closed peer.
    ///
    /// # Errors
    ///
    /// Any bind error other than a reclaimable stale Unix socket.
    pub fn bind(addr: &ListenAddr) -> io::Result<BoundListener> {
        match addr {
            ListenAddr::Unix(path) => {
                let listener = match UnixListener::bind(path) {
                    Ok(listener) => listener,
                    Err(error) if error.kind() == io::ErrorKind::AddrInUse => {
                        if UnixStream::connect(path).is_ok() {
                            return Err(error); // a live server owns it
                        }
                        std::fs::remove_file(path)?;
                        UnixListener::bind(path)?
                    }
                    Err(error) => return Err(error),
                };
                listener.set_nonblocking(true)?;
                Ok(BoundListener {
                    display: path.display().to_string(),
                    listener: Listener::Unix(listener),
                    cleanup: Some(path.clone()),
                })
            }
            ListenAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec)?;
                listener.set_nonblocking(true)?;
                Ok(BoundListener {
                    display: listener.local_addr()?.to_string(),
                    listener: Listener::Tcp(listener),
                    cleanup: None,
                })
            }
        }
    }

    /// The bound address as text — the Unix path, or the actual TCP
    /// address (port resolved) for clients to connect to.
    pub fn local_addr(&self) -> &str {
        &self.display
    }

    /// One non-blocking accept; `None` when no connection is pending.
    fn accept(&self) -> io::Result<Option<ConnStream>> {
        let accepted = match &self.listener {
            Listener::Unix(listener) => listener.accept().map(|(s, _)| ConnStream::Unix(s)),
            Listener::Tcp(listener) => listener.accept().map(|(s, _)| ConnStream::Tcp(s)),
        };
        match accepted {
            Ok(stream) => Ok(Some(stream)),
            Err(error)
                if matches!(
                    error.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::Interrupted
                        | io::ErrorKind::ConnectionAborted
                ) =>
            {
                Ok(None)
            }
            Err(error) => Err(error),
        }
    }

    /// Accepts and serves connections over `server` until `shutdown`
    /// flips, then drains (see the [module docs](self)) and returns the
    /// server-lifetime aggregate.
    ///
    /// Every accepted connection gets a reader thread; requests from
    /// all connections funnel through the server's shared admission
    /// queue and executor pool.
    ///
    /// # Errors
    ///
    /// Only a failing *accept* (not a failing connection) aborts the
    /// listener.
    pub fn serve(
        &self,
        server: &Server,
        config: &TransportConfig,
        shutdown: &AtomicBool,
    ) -> io::Result<TransportStats> {
        let faults = server.config().faults.clone();
        let executors = server.config().executors.max(1);
        let mut stats = TransportStats::default();
        // Set once at drain; reader threads re-apply it after EOF so
        // even requests admitted from already-buffered lines are bound.
        let drain_deadline: Mutex<Option<Instant>> = Mutex::new(None);
        let mut accept_error = None;
        thread::scope(|scope| {
            server.reopen_queue();
            let workers: Vec<_> = (0..executors)
                .map(|_| scope.spawn(|| server.run_worker()))
                .collect();
            let mut live = Vec::new();
            let mut ordinal: u64 = 0;
            while !shutdown.load(Ordering::SeqCst) {
                let stream = match self.accept() {
                    Ok(Some(stream)) => stream,
                    Ok(None) => {
                        thread::sleep(ACCEPT_POLL);
                        continue;
                    }
                    // A broken listener ends the serve, but the drain
                    // below still runs: live connections finish and the
                    // executor pool is joined before we report it.
                    Err(error) => {
                        accept_error = Some(error);
                        break;
                    }
                };
                ordinal += 1;
                let tag = ordinal.to_string();
                // An injected accept-stage panic refuses this one
                // connection; the listener keeps accepting.
                let accept_gate = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    faults.fire(Stage::Accept, &tag);
                }));
                if accept_gate.is_err() {
                    stats.refused_accepts += 1;
                    continue; // dropping the stream closes it
                }
                // The descriptor is shared four ways: the writer (owned
                // by the connection), the reader, the reader's closer
                // (half-closes after Bye so clients see EOF), and the
                // drain handle kept here.
                let handles = stream
                    .set_blocking()
                    .and_then(|()| stream.set_write_timeout(config.write_timeout))
                    .and_then(|()| {
                        Ok((
                            stream.try_clone()?,
                            stream.try_clone()?,
                            stream.try_clone()?,
                        ))
                    });
                let (read_half, closer, drain_handle) = match handles {
                    Ok(handles) => handles,
                    Err(error) => {
                        eprintln!("warning: connection {tag}: {error}; dropped");
                        stats.refused_accepts += 1;
                        continue;
                    }
                };
                let conn = server.open_connection(Box::new(stream), ordinal, true, false);
                let reader_conn = Arc::clone(&conn);
                let reader_faults = faults.clone();
                let reader_deadline = &drain_deadline;
                let handle = scope.spawn(move || {
                    let gate = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        reader_faults.fire(Stage::Connection, &tag);
                        server.run_reader(BufReader::new(read_half), &reader_conn);
                    }));
                    if let Err(payload) = gate {
                        server.fail_connection(
                            &reader_conn,
                            format!("connection failed: {}", panic_message(payload.as_ref())),
                        );
                    }
                    if let Some(deadline) = *lock(reader_deadline) {
                        server.impose_drain_deadline(&reader_conn, deadline);
                    }
                    // Close the socket once Bye has left, so a client
                    // reading to EOF is released immediately rather than
                    // at server drain.
                    server.await_finished(&reader_conn);
                    closer.shutdown(Shutdown::Both);
                });
                live.push((conn, drain_handle, handle));
            }
            // Drain. Order matters: arm the deadline before half-closing
            // the sockets, so a reader hitting EOF always sees it set.
            let deadline = Instant::now() + config.drain_grace;
            *lock(&drain_deadline) = Some(deadline);
            for (conn, stream, _) in &live {
                stream.shutdown(Shutdown::Read);
                server.impose_drain_deadline(conn, deadline);
            }
            for (conn, stream, handle) in live {
                stats.connections += 1;
                // The bounded wait runs *before* joining the reader
                // thread: the reader parks in an unbounded
                // `await_finished` on the same flag, so joining first
                // would wedge the drain on any connection that never
                // finishes. A stuck connection is abandoned instead —
                // the abandon flag releases the reader's wait, and the
                // full shutdown fails any executor parked in a write to
                // this socket — so the join below is always bounded.
                if server.wait_finished_timeout(&conn, config.drain_grace + config.drain_margin) {
                    match server.wait_finished(&conn) {
                        Ok(bye) => stats.absorb(&bye),
                        Err(error) => {
                            eprintln!("warning: connection {}: {error}", conn.ordinal());
                            stats.lost_connections += 1;
                        }
                    }
                } else {
                    eprintln!(
                        "warning: connection {} stuck past drain deadline; abandoned",
                        conn.ordinal()
                    );
                    stats.lost_connections += 1;
                    server.abandon_connection(&conn);
                }
                stream.shutdown(Shutdown::Both);
                if handle.join().is_err() {
                    // fail_connection already ran inside catch_unwind;
                    // a panic here is past it — close so Bye can leave.
                    server.close_connection(&conn);
                }
            }
            server.close_queue();
            for worker in workers {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        // Persist before reporting an accept failure: the drain of live
        // connections already completed, and socket connections never
        // save the store themselves — returning early here would throw
        // away every row this serve warmed.
        stats.store_rows_saved = server.save_store_now();
        if let Some(error) = accept_error {
            return Err(error);
        }
        Ok(stats)
    }
}

impl Drop for BoundListener {
    fn drop(&mut self) {
        if let Some(path) = &self.cleanup {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OptimizeRequest;
    use crate::problem::OptimizerConfig;
    use crate::service::faults::FaultPlan;
    use crate::service::protocol::{ClientFrame, ErrorKind, OptimizeFrame, ServerFrame, SocSpec};
    use crate::service::server::ServerConfig;
    use soctest_ate::{AteSpec, ProbeStation, TestCell};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn listen_addr_parse_distinguishes_tcp_from_paths() {
        assert_eq!(
            ListenAddr::parse("127.0.0.1:0").unwrap(),
            ListenAddr::Tcp("127.0.0.1:0".to_string())
        );
        assert_eq!(
            ListenAddr::parse("[::1]:7878").unwrap(),
            ListenAddr::Tcp("[::1]:7878".to_string())
        );
        // A hostname:port — the advertised HOST:PORT form — is TCP even
        // though it is not a SocketAddr literal.
        assert_eq!(
            ListenAddr::parse("localhost:7878").unwrap(),
            ListenAddr::Tcp("localhost:7878".to_string())
        );
        assert_eq!(
            ListenAddr::parse("/tmp/soc.sock").unwrap(),
            ListenAddr::Unix(PathBuf::from("/tmp/soc.sock"))
        );
        // No port: a path, not an address.
        assert_eq!(
            ListenAddr::parse("localhost").unwrap(),
            ListenAddr::Unix(PathBuf::from("localhost"))
        );
        // A path separator always means a path, colons and all.
        assert_eq!(
            ListenAddr::parse("/tmp/odd:1").unwrap(),
            ListenAddr::Unix(PathBuf::from("/tmp/odd:1"))
        );
        // An out-of-range or non-numeric port is not a host:port form.
        assert_eq!(
            ListenAddr::parse("soc.sock:archive").unwrap(),
            ListenAddr::Unix(PathBuf::from("soc.sock:archive"))
        );
        assert!(ListenAddr::parse("").is_err());
    }

    fn optimize_line(request_id: &str, soc: &str) -> String {
        let cell = TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        serde_json::to_string(&ClientFrame::Optimize(OptimizeFrame {
            request_id: request_id.to_string(),
            soc: SocSpec::Named(soc.to_string()),
            request: OptimizeRequest::new(OptimizerConfig::new(cell)),
            deadline_ms: None,
            stats: false,
        }))
        .unwrap()
    }

    /// Connects, sends `lines`, half-closes, and returns the parsed
    /// response frames (ending in `Bye`).
    fn client_session(path: &std::path::Path, lines: &[String]) -> Vec<ServerFrame> {
        let mut stream = UnixStream::connect(path).expect("connect");
        for line in lines {
            writeln!(stream, "{line}").expect("send");
        }
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
            .lines()
            .map(|line| serde_json::from_str(line).expect("frame parses"))
            .collect()
    }

    struct SockDirGuard(PathBuf);

    impl SockDirGuard {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("soctest-transport-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create sock dir");
            SockDirGuard(dir)
        }

        fn sock(&self) -> PathBuf {
            self.0.join("soc.sock")
        }
    }

    impl Drop for SockDirGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Runs a listener over `server` for the duration of `clients`,
    /// then drains and returns the aggregate.
    fn with_listener(
        server: &Server,
        path: &std::path::Path,
        clients: impl FnOnce(),
    ) -> TransportStats {
        let listener = BoundListener::bind(&ListenAddr::Unix(path.to_path_buf())).expect("bind");
        let stop = AtomicBool::new(false);
        thread::scope(|scope| {
            let serving = scope.spawn(|| {
                listener
                    .serve(server, &TransportConfig::default(), &stop)
                    .expect("serve")
            });
            clients();
            stop.store(true, Ordering::SeqCst);
            serving.join().expect("listener thread")
        })
    }

    #[test]
    fn two_connections_share_the_server_and_get_scoped_byes() {
        let guard = SockDirGuard::new("shared");
        let server = Server::new(ServerConfig::default());
        let path = guard.sock();
        let stats = with_listener(&server, &path, || {
            let first = client_session(&path, &[optimize_line("a1", "d695")]);
            let second = client_session(&path, &[optimize_line("b1", "d695")]);
            for (frames, id, conn_id) in [(&first, "a1", 1), (&second, "b1", 2)] {
                assert_eq!(frames.len(), 2, "{frames:?}");
                match &frames[0] {
                    ServerFrame::Result(result) => assert_eq!(result.request_id, id),
                    other => panic!("expected result, got {other:?}"),
                }
                match &frames[1] {
                    ServerFrame::Bye(bye) => {
                        // Counters are connection-scoped...
                        assert_eq!(bye.served, 1);
                        assert_eq!(bye.errors, 0);
                        // ...and carry the connection identity.
                        let connection = bye.connection.expect("socket Bye has identity");
                        assert_eq!(connection.id, conn_id);
                        assert_eq!(connection.requests, 1);
                    }
                    other => panic!("expected Bye, got {other:?}"),
                }
            }
            // Shared state: the second client's identical request hit
            // the solution cache warmed by the first.
            match &second[0] {
                ServerFrame::Result(result) => {
                    assert!(result.warm, "session warmed by connection 1");
                    assert!(result.cached, "answer served from the shared cache");
                }
                other => panic!("expected result, got {other:?}"),
            }
        });
        assert_eq!(stats.connections, 2);
        assert_eq!(stats.served, 2);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.lost_connections, 0);
    }

    #[test]
    fn connection_stage_panic_fails_one_connection_cleanly() {
        let guard = SockDirGuard::new("conn-fault");
        let server = Server::new(ServerConfig {
            faults: FaultPlan::parse("connection:panic@2").unwrap(),
            ..ServerConfig::default()
        });
        let path = guard.sock();
        let stats = with_listener(&server, &path, || {
            let first = client_session(&path, &[optimize_line("a1", "d695")]);
            assert!(
                matches!(&first[0], ServerFrame::Result(_)),
                "connection 1 unaffected: {first:?}"
            );
            // Connection 2 is failed by the injected panic, but still
            // answers a typed error and a well-formed Bye.
            let second = client_session(&path, &[optimize_line("b1", "d695")]);
            match &second[0] {
                ServerFrame::Error(error) => {
                    assert_eq!(error.kind, ErrorKind::Internal);
                    assert!(
                        error.message.contains("connection failed"),
                        "{}",
                        error.message
                    );
                }
                other => panic!("expected Internal, got {other:?}"),
            }
            assert!(
                matches!(second.last(), Some(ServerFrame::Bye(_))),
                "{second:?}"
            );
            // Connection 3 is served normally again.
            let third = client_session(&path, &[optimize_line("c1", "d695")]);
            assert!(matches!(&third[0], ServerFrame::Result(_)), "{third:?}");
        });
        assert_eq!(stats.connections, 3);
        assert_eq!(stats.served, 2);
        assert_eq!(stats.internal_errors, 1);
    }

    #[test]
    fn accept_stage_panic_refuses_only_that_accept() {
        let guard = SockDirGuard::new("accept-fault");
        let server = Server::new(ServerConfig {
            faults: FaultPlan::parse("accept:panic@1").unwrap(),
            ..ServerConfig::default()
        });
        let path = guard.sock();
        let stats = with_listener(&server, &path, || {
            // The first accept is refused: the socket connects (the
            // kernel completes that before accept) but closes without a
            // single frame.
            let mut refused = UnixStream::connect(&path).expect("connect");
            refused.shutdown(Shutdown::Write).expect("half-close");
            let mut text = String::new();
            refused.read_to_string(&mut text).expect("read");
            assert_eq!(text, "", "refused connection answers nothing");
            // The next connection is served.
            let frames = client_session(&path, &[optimize_line("a1", "d695")]);
            assert!(matches!(&frames[0], ServerFrame::Result(_)), "{frames:?}");
        });
        assert_eq!(stats.refused_accepts, 1);
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn stale_unix_socket_is_reclaimed_but_a_live_one_is_not() {
        let guard = SockDirGuard::new("stale");
        let path = guard.sock();
        let addr = ListenAddr::Unix(path.clone());
        // Simulate a killed process: dropping a std listener closes the
        // descriptor but leaves the socket file behind.
        drop(UnixListener::bind(&path).expect("first bind"));
        assert!(path.exists(), "stale socket file left behind");
        let bound = BoundListener::bind(&addr).expect("stale socket reclaimed");
        // A live listener, on the other hand, is never stolen.
        let error = BoundListener::bind(&addr).expect_err("live socket not stolen");
        assert_eq!(error.kind(), io::ErrorKind::AddrInUse);
        drop(bound);
        assert!(!path.exists(), "socket path removed on close");
    }

    #[test]
    fn drain_answers_in_flight_requests_before_bye() {
        let guard = SockDirGuard::new("drain");
        let server = Server::new(ServerConfig {
            faults: FaultPlan::parse("optimize:delay:200@slow").unwrap(),
            ..ServerConfig::default()
        });
        let path = guard.sock();
        let listener = BoundListener::bind(&ListenAddr::Unix(path.clone())).expect("bind");
        let stop = AtomicBool::new(false);
        let stats = thread::scope(|scope| {
            let serving = scope.spawn(|| {
                listener
                    .serve(&server, &TransportConfig::default(), &stop)
                    .expect("serve")
            });
            // Keep the write side open: the drain, not client EOF, must
            // end this connection.
            let mut stream = UnixStream::connect(&path).expect("connect");
            writeln!(stream, "{}", optimize_line("slow", "d695")).expect("send");
            stream.flush().expect("flush");
            thread::sleep(Duration::from_millis(50));
            stop.store(true, Ordering::SeqCst);
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read");
            let frames: Vec<ServerFrame> = response
                .lines()
                .map(|line| serde_json::from_str(line).expect("frame parses"))
                .collect();
            // The in-flight request was answered (the 200 ms delay fits
            // the 2 s grace), then the connection got its Bye.
            assert_eq!(frames.len(), 2, "{frames:?}");
            assert!(matches!(&frames[0], ServerFrame::Result(r) if r.request_id == "slow"));
            assert!(matches!(&frames[1], ServerFrame::Bye(_)));
            serving.join().expect("listener thread")
        });
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.lost_connections, 0);
        // The socket file is gone once the listener dropped.
        drop(listener);
        assert!(!path.exists(), "socket path cleaned up");
    }

    #[test]
    fn stuck_connection_is_abandoned_without_wedging_the_drain() {
        let guard = SockDirGuard::new("stuck");
        // The delay fault sleeps without observing the cancel token —
        // a request that ignores its drain deadline far past the grace.
        let server = Server::new(ServerConfig {
            faults: FaultPlan::parse("optimize:delay:700@stuck").unwrap(),
            ..ServerConfig::default()
        });
        let config = TransportConfig {
            drain_grace: Duration::from_millis(50),
            drain_margin: Duration::from_millis(100),
            ..TransportConfig::default()
        };
        let path = guard.sock();
        let listener = BoundListener::bind(&ListenAddr::Unix(path.clone())).expect("bind");
        let stop = AtomicBool::new(false);
        // Before the abandonment fix this test hung: the drain joined
        // the reader thread, which was parked waiting for a Bye that
        // only leaves once the stuck request does.
        let stats = thread::scope(|scope| {
            let serving = scope.spawn(|| listener.serve(&server, &config, &stop).expect("serve"));
            let mut stream = UnixStream::connect(&path).expect("connect");
            writeln!(stream, "{}", optimize_line("stuck", "d695")).expect("send");
            stream.flush().expect("flush");
            // Let the executor claim the request and enter the delay.
            thread::sleep(Duration::from_millis(100));
            stop.store(true, Ordering::SeqCst);
            serving.join().expect("listener thread")
        });
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.lost_connections, 1, "stuck connection abandoned");
        assert_eq!(stats.served, 0, "an abandoned Bye is not absorbed");
    }
}
