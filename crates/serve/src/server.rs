//! The resident server: a blocking acceptor feeding a bounded queue of
//! connections drained by a thread-per-core worker pool.
//!
//! The shape is deliberately boring. One acceptor thread polls a
//! nonblocking listener; each accepted socket either enters the bounded
//! queue or is answered `503` on the spot (load shedding — the queue
//! *is* the admission policy, there is no hidden backlog beyond the
//! kernel's). Workers pop connections and run keep-alive request loops
//! under per-socket read/write deadlines, so one slow or silent peer
//! costs at most one worker for one deadline. A termination request
//! (SIGTERM/SIGINT, or [`Server::request_stop`] in tests) stops the
//! acceptor, lets workers finish every queued and in-flight request,
//! then joins the pool — the graceful-drain contract `rc serve` builds
//! its exit-0 promise on.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::err::ServeError;
use crate::http::{error_body, read_request, write_response, Limits, Request, Response};
use crate::ws;

/// What the application layer plugs into the transport. Handlers run on
/// worker threads, so implementations must be `Sync`.
pub trait App: Sync {
    /// Answers one parsed HTTP request.
    fn handle(&self, req: &Request) -> Response;

    /// Whether `path` accepts a WebSocket upgrade.
    fn upgrade_allowed(&self, _path: &str) -> bool {
        false
    }

    /// Answers one WebSocket text message with zero or more text frames
    /// (a batch request streams one frame per result).
    fn ws_message(&self, _text: &str) -> Vec<String> {
        Vec::new()
    }
}

/// Server tuning. [`ServerConfig::default`] suits tests and local runs;
/// `rc serve` overrides address and thread count from its flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, `host:port`.
    pub addr: String,
    /// Worker threads. Defaults to the core count.
    pub threads: usize,
    /// Accepted-but-unserved connections held before shedding with 503.
    pub queue_cap: usize,
    /// Per-socket read deadline.
    pub read_timeout: Duration,
    /// Per-socket write deadline.
    pub write_timeout: Duration,
    /// Parser budgets.
    pub limits: Limits,
    /// Most requests served on one keep-alive connection before the
    /// server closes it (an upper bound on per-connection state).
    pub max_requests_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7700".into(),
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            queue_cap: 128,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            limits: Limits::default(),
            max_requests_per_conn: 1024,
        }
    }
}

/// Counters the serve loop keeps about itself (distinct from the query
/// metrics, which belong to `obs`). All monotonic.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections answered 503 because the queue was full.
    pub shed: AtomicU64,
    /// Requests answered (any status).
    pub requests: AtomicU64,
    /// Protocol faults answered with a 4xx/5xx status.
    pub faults_answered: AtomicU64,
    /// Connections dropped without a response (peer vanished mid-parse).
    pub faults_silent: AtomicU64,
    /// WebSocket upgrades completed.
    pub ws_upgrades: AtomicU64,
    /// WebSocket text messages served.
    pub ws_messages: AtomicU64,
}

/// The termination latch. Signal handlers may only do async-signal-safe
/// work, which a relaxed atomic store is; everything else happens on the
/// threads that poll it.
static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::STOP;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // The C `signal(2)` entry point, declared with a typed function
        // pointer so no integer-cast of a code address is involved. The
        // simple `signal` registration (not `sigaction`) is enough here:
        // the handler only stores a flag.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::Relaxed);
    }

    /// Routes SIGTERM and SIGINT into the stop latch.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    /// No signal wiring off Unix; [`Server::request_stop`] still works.
    pub fn install() {}
}

/// Asks the running server to drain and stop (what the signal handler
/// does, callable directly from tests and embedders).
pub fn request_stop() {
    STOP.store(true, Ordering::Relaxed);
}

/// Whether a stop has been requested.
pub fn stop_requested() -> bool {
    STOP.load(Ordering::Relaxed)
}

/// Re-arms the latch so one process can run servers back to back
/// (tests; `rc serve` runs exactly one).
pub fn reset_stop() {
    STOP.store(false, Ordering::Relaxed);
}

/// The bounded hand-off between the acceptor and the workers.
struct ConnQueue {
    deque: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    cap: usize,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        ConnQueue { deque: Mutex::new(VecDeque::new()), ready: Condvar::new(), cap }
    }

    /// Queues a connection, or returns it to the caller when full.
    fn push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut deque = self.deque.lock().unwrap();
        if deque.len() >= self.cap {
            return Err(conn);
        }
        deque.push_back(conn);
        drop(deque);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops a connection, blocking until one arrives or shutdown. The
    /// queue is drained *before* the stop latch is honoured, so every
    /// accepted connection gets served even during a drain.
    fn pop(&self) -> Option<TcpStream> {
        let mut deque = self.deque.lock().unwrap();
        loop {
            if let Some(conn) = deque.pop_front() {
                return Some(conn);
            }
            if stop_requested() {
                return None;
            }
            let (next, _) =
                self.ready.wait_timeout(deque, Duration::from_millis(50)).unwrap();
            deque = next;
        }
    }
}

/// The server: a bound listener plus its tuning. Create with
/// [`Server::bind`], run with [`Server::run`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    stats: ServerStats,
}

impl Server {
    /// Binds the listen address (the socket exists after this returns,
    /// so callers can print "listening on …" truthfully) and installs
    /// the SIGTERM/SIGINT handlers.
    pub fn bind(config: ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Bind(format!("{}: {e}", config.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Bind(format!("set_nonblocking: {e}")))?;
        sig::install();
        Ok(Server { listener, config, stats: ServerStats::default() })
    }

    /// The bound address (useful when the config asked for port 0).
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.listener.local_addr().ok()
    }

    /// The serve-loop counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Runs until a stop is requested, then drains: the acceptor quits,
    /// workers finish every queued and in-flight request, and `run`
    /// returns once the pool has joined.
    pub fn run(&self, app: &dyn App) {
        let queue = ConnQueue::new(self.config.queue_cap);
        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for worker in 0..self.config.threads.max(1) {
                let queue = &queue;
                let stats = &self.stats;
                let config = &self.config;
                let handle = std::thread::Builder::new()
                    .name(format!("serve-worker-{worker}"))
                    .spawn_scoped(scope, move || {
                        while let Some(conn) = queue.pop() {
                            serve_connection(conn, app, config, stats);
                        }
                    })
                    .expect("spawning a worker thread");
                workers.push(handle);
            }

            // The acceptor runs on the calling thread so `run` owns the
            // whole lifecycle.
            while !stop_requested() {
                match self.listener.accept() {
                    Ok((conn, _peer)) => {
                        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                        configure(&conn, &self.config);
                        if let Err(mut refused) = queue.push(conn) {
                            self.stats.shed.fetch_add(1, Ordering::Relaxed);
                            let resp = Response::json(
                                503,
                                "{\"error\": \"server is at capacity, retry later\"}".into(),
                            )
                            .with_header("Retry-After", "1");
                            let _ = write_response(&mut refused, &resp, false);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            // Wake every parked worker so they observe the latch (after
            // draining whatever is still queued).
            queue.ready.notify_all();
            // Join explicitly: unlike the scope's implicit wait, a join
            // also waits for each worker's thread-local destructors, which
            // publish its spans to the global table.
            for worker in workers {
                worker.join().expect("serve worker");
            }
        });
    }
}

/// Applies the per-socket deadlines. Failures are non-fatal: a socket
/// that cannot take a deadline still gets served, it just loses the
/// slow-peer protection.
fn configure(conn: &TcpStream, config: &ServerConfig) {
    let _ = conn.set_read_timeout(Some(config.read_timeout));
    let _ = conn.set_write_timeout(Some(config.write_timeout));
    let _ = conn.set_nodelay(true);
}

/// The keep-alive request loop for one connection. Every exit path is a
/// typed [`ServeError`]; faults that map to a status are answered, the
/// rest close silently. Panics cannot cross this frame — handlers are
/// plain Rust and the parser is total — but even a latent bug would
/// only poison one worker's current connection, not the listener.
fn serve_connection(
    mut conn: TcpStream,
    app: &dyn App,
    config: &ServerConfig,
    stats: &ServerStats,
) {
    let mut carry: Vec<u8> = Vec::new();
    for served in 0..config.max_requests_per_conn {
        let req = match read_request(&mut conn, &mut carry, &config.limits) {
            Ok(req) => req,
            Err(err) => {
                answer_fault(&mut conn, &err, stats);
                return;
            }
        };

        // A WebSocket upgrade hands the socket to the frame loop; the
        // HTTP conversation is over either way.
        if req.header("upgrade").is_some() {
            if app.upgrade_allowed(req.path()) {
                match ws::validate_upgrade(&req) {
                    Ok(key) => {
                        stats.requests.fetch_add(1, Ordering::Relaxed);
                        stats.ws_upgrades.fetch_add(1, Ordering::Relaxed);
                        ws_loop(conn, carry, key, app, config, stats);
                    }
                    Err(err) => answer_fault(&mut conn, &err, stats),
                }
            } else {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                let resp =
                    Response::json(400, "{\"error\": \"no websocket endpoint here\"}".into());
                let _ = write_response(&mut conn, &resp, false);
            }
            return;
        }

        let keep_alive = req.wants_keep_alive() && served + 1 < config.max_requests_per_conn;
        let resp = app.handle(&req);
        stats.requests.fetch_add(1, Ordering::Relaxed);
        if write_response(&mut conn, &resp, keep_alive).is_err() {
            // Mid-response disconnect: nothing to answer, nobody left
            // to hear it. The worker just moves on.
            stats.faults_silent.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// Answers a protocol fault when it maps to a status, else closes
/// silently. Write failures are ignored — the peer is already gone.
fn answer_fault(conn: &mut TcpStream, err: &ServeError, stats: &ServerStats) {
    match err.status() {
        Some(status) => {
            stats.faults_answered.fetch_add(1, Ordering::Relaxed);
            let resp = Response::json(status, error_body(err));
            let _ = write_response(conn, &resp, false);
        }
        None => {
            if !matches!(err, ServeError::Closed) {
                stats.faults_silent.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The WebSocket frame loop after a validated upgrade: answer the
/// handshake, then serve text messages until close, fault, or drain.
fn ws_loop(
    mut conn: TcpStream,
    mut carry: Vec<u8>,
    key: String,
    app: &dyn App,
    config: &ServerConfig,
    stats: &ServerStats,
) {
    let handshake = format!(
        "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: {}\r\n\r\n",
        ws::accept_key(&key)
    );
    if conn.write_all(handshake.as_bytes()).and_then(|()| conn.flush()).is_err() {
        stats.faults_silent.fetch_add(1, Ordering::Relaxed);
        return;
    }

    loop {
        // A drain request ends the conversation politely between
        // messages (1001 = going away).
        if stop_requested() {
            let _ = ws::write_close(&mut conn, 1001);
            return;
        }
        match ws::read_frame(&mut conn, &mut carry, config.limits.max_body) {
            Ok(ws::Frame::Text(text)) => {
                stats.ws_messages.fetch_add(1, Ordering::Relaxed);
                for reply in app.ws_message(&text) {
                    if ws::write_text(&mut conn, &reply).is_err() {
                        stats.faults_silent.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
            Ok(ws::Frame::Ping(payload)) => {
                if ws::write_pong(&mut conn, &payload).is_err() {
                    return;
                }
            }
            Ok(ws::Frame::Pong(_)) => {}
            Ok(ws::Frame::Close(code)) => {
                let _ = ws::write_close(&mut conn, code);
                return;
            }
            Ok(ws::Frame::Binary(_)) => {
                // The rank protocol is text-only; answer 1003
                // (unsupported data) and hang up.
                let _ = ws::write_close(&mut conn, 1003);
                return;
            }
            Err(ServeError::Closed) => return,
            Err(err) => {
                // Protocol faults get a 1002 close frame when the
                // socket is still writable; either way the worker is
                // free immediately.
                if !matches!(err, ServeError::Timeout) {
                    let _ = ws::write_close(&mut conn, 1002);
                }
                stats.faults_silent.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl App for Echo {
        fn handle(&self, req: &Request) -> Response {
            Response::text(200, &format!("{} {}", req.method, req.path()))
        }
        fn upgrade_allowed(&self, path: &str) -> bool {
            path == "/ws"
        }
        fn ws_message(&self, text: &str) -> Vec<String> {
            vec![format!("echo:{text}")]
        }
    }

    #[test]
    fn queue_sheds_above_capacity_and_drains_before_stopping() {
        reset_stop();
        let queue = ConnQueue::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let b = TcpStream::connect(addr).unwrap();
        assert!(queue.push(a).is_ok());
        assert!(queue.push(b).is_err(), "second connection must be refused at cap 1");

        // A queued connection is handed out even after a stop request.
        request_stop();
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none());
        reset_stop();
    }

    #[test]
    fn server_binds_ephemeral_ports_and_reports_them() {
        reset_stop();
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
        drop(server);
        reset_stop();
    }

    #[test]
    fn bind_failures_are_typed() {
        let first = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .unwrap();
        let taken = first.local_addr().unwrap();
        let err = Server::bind(ServerConfig {
            addr: taken.to_string(),
            ..ServerConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, ServeError::Bind(_)), "{err:?}");
        reset_stop();
    }

    #[test]
    fn end_to_end_http_and_ws_roundtrip_then_graceful_stop() {
        reset_stop();
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.run(&Echo));

            // Plain HTTP round trip.
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(b"GET /hello HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
            let mut raw = Vec::new();
            std::io::Read::read_to_end(&mut conn, &mut raw).unwrap();
            let text = String::from_utf8(raw).unwrap();
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
            assert!(text.ends_with("GET /hello"), "{text}");

            // WebSocket round trip on the allowed path.
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(
                b"GET /ws HTTP/1.1\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n\
                  Sec-WebSocket-Version: 13\r\nSec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n",
            )
            .unwrap();
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") {
                std::io::Read::read_exact(&mut conn, &mut byte).unwrap();
                head.push(byte[0]);
            }
            let head = String::from_utf8(head).unwrap();
            assert!(head.starts_with("HTTP/1.1 101"), "{head}");
            assert!(head.contains("s3pPLMBiTxaQ9kYGzzhZRbK+xOo="), "{head}");
            ws::write_client_text(&mut conn, "ping", [9, 9, 9, 9]).unwrap();
            let mut carry = Vec::new();
            let frame = ws::read_server_frame(&mut conn, &mut carry, 1 << 20).unwrap();
            assert_eq!(frame, ws::Frame::Text("echo:ping".into()));
            let _ = ws::write_close(&mut conn, 1000);
            drop(conn);

            request_stop();
            handle.join().unwrap();
        });

        assert!(server.stats().requests.load(Ordering::Relaxed) >= 2);
        assert_eq!(server.stats().ws_upgrades.load(Ordering::Relaxed), 1);
        reset_stop();
    }
}
