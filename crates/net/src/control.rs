//! The per-node control socket: a minimal HTTP/1.0 metrics endpoint
//! answered from the node's own thread.
//!
//! The registry a scrape renders belongs to the node thread, so that is
//! where the answer is built; what must not happen there is waiting for
//! a scraper. The endpoint's [`Acceptor`] thread therefore accepts and
//! reads each request head itself (one client at a time, each within
//! [`REQUEST_WAIT`]), and only a complete request reaches the node, as a
//! [`Wake::Scrape`] on the channel its loop already blocks on. The node
//! calls [`ControlServer::respond`], which writes the whole response —
//! kilobytes, into a fresh socket's empty send buffer — and closes. The
//! server speaks just enough HTTP for `curl`, a Prometheus scraper, and
//! the fleet poller:
//!
//! * `GET /metrics` — Prometheus text exposition format
//! * `GET /metrics.json` — the JSON snapshot the fleet collector consumes
//!
//! Everything else is a 404. Responses close the connection
//! (`Connection: close`), so a scrape is one short-lived connection, like
//! the shuffle exchanges themselves.

use crate::sock::{Acceptor, Wake, WRITE_WAIT};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// Cap on buffered request bytes before a client is dropped; a metrics
/// scrape's request line plus headers is a few hundred bytes.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long a client has to send its request head. It is the acceptor
/// thread that waits, so a stalling client delays other scrapers by this
/// much and the node not at all.
pub const REQUEST_WAIT: Duration = Duration::from_millis(250);

/// A scraper whose request head has arrived, waiting for its answer.
pub struct ScrapeRequest {
    stream: TcpStream,
    /// The path of a `GET`; `None` for anything else.
    path: Option<String>,
}

/// A metrics endpoint on a localhost port.
pub struct ControlServer {
    port: u16,
    /// Held for its drop, which closes the listener.
    _acceptor: Acceptor,
    /// Requests answered (any status) since the server was bound.
    pub requests_served: u64,
}

impl ControlServer {
    /// Binds the endpoint on `127.0.0.1:port` (with the same brief retry
    /// as the node listener itself); complete requests arrive on `wake`.
    pub fn bind(port: u16, wake: Sender<Wake>) -> Result<Self, String> {
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let bound = crate::sock::bind_listener(addr).and_then(|listener| {
            let port = listener.local_addr()?.port();
            let acceptor = Acceptor::spawn(listener, move |stream| {
                if let Some(request) = read_request(stream) {
                    let _ = wake.send(Wake::Scrape(request));
                }
            })?;
            Ok((port, acceptor))
        });
        let (port, acceptor) = bound.map_err(|e| format!("control endpoint: bind {addr}: {e}"))?;
        Ok(Self {
            port,
            _acceptor: acceptor,
            requests_served: 0,
        })
    }

    /// The bound port (useful when bound on port 0).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Answers one request and closes its connection. `render` maps a
    /// request path to `(content_type, body)`; `None` is a 404. A client
    /// that does not take the response within the connection write wait
    /// gets a truncated one.
    pub fn respond(
        &mut self,
        request: ScrapeRequest,
        render: impl FnOnce(&str) -> Option<(&'static str, String)>,
    ) {
        let ScrapeRequest { mut stream, path } = request;
        let answer = match path.as_deref().and_then(render) {
            Some((content_type, body)) => response(200, "OK", content_type, &body),
            None => response(404, "Not Found", "text/plain", "not found\n"),
        };
        self.requests_served += 1;
        let _ = stream.write_all(&answer);
    }
}

/// Reads one request head on the acceptor thread; `None` drops a client
/// that hung up, overran [`MAX_REQUEST_BYTES`] or [`REQUEST_WAIT`].
fn read_request(mut stream: TcpStream) -> Option<ScrapeRequest> {
    stream.set_write_timeout(Some(WRITE_WAIT)).ok()?;
    let deadline = Instant::now() + REQUEST_WAIT;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    while !headers_complete(&head) {
        let left = deadline.checked_duration_since(Instant::now())?;
        if left.is_zero() || head.len() > MAX_REQUEST_BYTES {
            return None;
        }
        stream.set_read_timeout(Some(left)).ok()?;
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    Some(ScrapeRequest {
        path: request_path(&head),
        stream,
    })
}

/// Whether a full HTTP request head (`\r\n\r\n` or `\n\n`) has arrived.
fn headers_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

/// Extracts the path of a `GET <path> HTTP/1.x` request line.
fn request_path(buf: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(buf).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    Some(parts.next()?.to_string())
}

fn response(code: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Blocking one-shot scrape of a node's endpoint: connects to
/// `127.0.0.1:port`, requests `path`, and returns the response body on a
/// 200. Used by the fleet poller and `veil net top`; the timeouts keep a
/// dead node from stalling the collector.
pub fn scrape(port: u16, path: &str, timeout: Duration) -> Result<String, String> {
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n").as_bytes())
        .map_err(|e| format!("send request to {addr}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read response from {addr}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(format!("{addr}{path}: {status}"));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves a fixed body from a thread blocking on the wake channel,
    /// scrapes it with the blocking client, and checks both content types
    /// and the 404 path.
    #[test]
    fn scrape_round_trips_through_a_woken_server() {
        let (tx, wakes) = std::sync::mpsc::channel();
        let mut server = ControlServer::bind(0, tx).expect("bind control port");
        let port = server.port();
        let handle = std::thread::spawn(move || {
            while server.requests_served < 3 {
                let Ok(Wake::Scrape(request)) = wakes.recv() else {
                    panic!("only scrapes arrive on this channel");
                };
                server.respond(request, |path| match path {
                    "/metrics" => Some(("text/plain; version=0.0.4", "veil_up 1\n".to_string())),
                    "/metrics.json" => Some(("application/json", "{\"node\":3}".to_string())),
                    _ => None,
                });
            }
        });
        let timeout = Duration::from_secs(5);
        let prom = scrape(port, "/metrics", timeout).expect("prometheus scrape");
        assert_eq!(prom, "veil_up 1\n");
        let json = scrape(port, "/metrics.json", timeout).expect("json scrape");
        assert_eq!(json, "{\"node\":3}");
        let err = scrape(port, "/nope", timeout).unwrap_err();
        assert!(err.contains("404"), "{err}");
        handle.join().expect("three requests were answered");
    }

    #[test]
    fn request_parsing_handles_partial_and_non_get() {
        assert!(!headers_complete(b"GET /metrics HTTP/1.0\r\n"));
        assert!(headers_complete(b"GET /metrics HTTP/1.0\r\n\r\n"));
        assert_eq!(
            request_path(b"GET /metrics.json HTTP/1.1\r\n\r\n").as_deref(),
            Some("/metrics.json")
        );
        assert_eq!(request_path(b"POST / HTTP/1.0\r\n\r\n"), None);
    }
}
