//! The std-only HTTP status endpoint.
//!
//! A deliberately minimal HTTP/1.1 server (no TLS, no keep-alive, no
//! chunking — every response closes the connection) bound to
//! loopback. Routes:
//!
//! | route | body |
//! |---|---|
//! | `GET /` | HTML dashboard (self-refreshing) |
//! | `GET /status` | [`FleetStatus::to_json`] snapshot |
//! | `GET /jobs` | per-job status array in grid order |
//! | `GET /job/<id>` | the job's artifact document, plus a timeline summary when `<campaign>/timelines/<id>.jsonl` exists |
//!
//! The server owns an `Arc<Mutex<FleetStatus>>` the supervisor loop
//! refreshes each tick; `/job/<id>` reads the store on demand (the
//! artifact is immutable once present, so no synchronization with the
//! writer is needed beyond the store's atomic rename).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mindgap_obs::TimelineSummary;

use crate::status::FleetStatus;

/// Shared state between the supervisor loop and the HTTP threads.
#[derive(Debug)]
pub struct DashState {
    /// Latest status snapshot (supervisor-refreshed).
    pub status: Mutex<FleetStatus>,
    /// Campaign directory, for on-demand artifact reads.
    pub store_dir: PathBuf,
}

/// Handle to a running dashboard server.
#[derive(Debug)]
pub struct HttpServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Start serving on `127.0.0.1:<port>` (port 0 picks a free one).
    pub fn start(port: u16, state: Arc<DashState>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let state = state.clone();
                        // One short-lived thread per request keeps the
                        // accept loop responsive without a pool.
                        std::thread::spawn(move || handle_conn(stream, &state));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(HttpServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_conn(mut stream: TcpStream, state: &DashState) {
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok();
    // The request may arrive in several segments: read up to the end of
    // its header, a full buffer, EOF or the read timeout.
    let mut buf = [0u8; 2048];
    let mut n = 0;
    while n < buf.len() && !buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf[n..]) {
            Ok(k) if k > 0 => n += k,
            _ => break,
        }
    }
    if n == 0 {
        return;
    }
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (code, content_type, body) = route(path, state);
    let _ = write!(
        stream,
        "HTTP/1.1 {code}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
}

fn route(path: &str, state: &DashState) -> (&'static str, &'static str, String) {
    match path {
        "/" => (
            "200 OK",
            "text/html; charset=utf-8",
            render_html(&state.status.lock().unwrap()),
        ),
        "/status" => (
            "200 OK",
            "application/json",
            state.status.lock().unwrap().to_json(),
        ),
        "/jobs" => (
            "200 OK",
            "application/json",
            state.status.lock().unwrap().jobs_json(),
        ),
        _ => match path.strip_prefix("/job/") {
            Some(id) if is_safe_id(id) => match job_document(&state.store_dir, id) {
                Some(doc) => ("200 OK", "application/json", doc),
                None => (
                    "404 Not Found",
                    "application/json",
                    format!("{{\"error\":\"no artifact for job {id}\"}}"),
                ),
            },
            _ => (
                "404 Not Found",
                "application/json",
                "{\"error\":\"unknown route\"}".into(),
            ),
        },
    }
}

/// Job ids come from grid slugs: alphanumerics plus `. - _ =`. Reject
/// anything else before touching the filesystem.
fn is_safe_id(id: &str) -> bool {
    !id.is_empty()
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_' | '='))
}

/// Drill-down document: the artifact verbatim, wrapped with a span
/// timeline summary when the campaign exported one for this job.
fn job_document(store_dir: &Path, id: &str) -> Option<String> {
    let artifact = std::fs::read_to_string(store_dir.join("jobs").join(format!("{id}.json"))).ok()?;
    let timeline = std::fs::read_to_string(store_dir.join("timelines").join(format!("{id}.jsonl")))
        .ok()
        .map(|jsonl| TimelineSummary::from_jsonl(&jsonl).to_json());
    Some(match timeline {
        Some(tl) => format!("{{\"artifact\":{},\"timeline\":{tl}}}", artifact.trim_end()),
        None => format!("{{\"artifact\":{}}}", artifact.trim_end()),
    })
}

/// Server-rendered dashboard page. Static HTML with a refresh header
/// keeps the server free of assets and the page free of scripts.
fn render_html(s: &FleetStatus) -> String {
    use std::fmt::Write;
    let mut h = String::with_capacity(4096);
    let pct = s.progress() * 100.0;
    let _ = write!(
        h,
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <meta http-equiv=\"refresh\" content=\"2\">\
         <title>mindgap-fleet: {name}</title><style>\
         body{{font:14px/1.4 system-ui,sans-serif;margin:2rem;max-width:64rem}}\
         table{{border-collapse:collapse;margin:.75rem 0}}\
         td,th{{border:1px solid #ccc;padding:.2rem .6rem;text-align:left}}\
         .bar{{background:#eee;height:1.2rem;width:24rem;display:inline-block;vertical-align:middle}}\
         .fill{{background:#4a7;height:100%}}\
         code{{background:#f4f4f4;padding:0 .2rem}}</style></head><body>\
         <h1>campaign <code>{name}</code></h1>\
         <p><span class=\"bar\"><span class=\"fill\" style=\"width:{pct:.1}%\"></span></span>\
         {done}/{total} done, {failed} failed &middot; elapsed {elapsed:.0}&thinsp;s",
        name = esc(&s.campaign),
        done = s.done,
        total = s.total,
        failed = s.failed,
        elapsed = s.elapsed_s,
    );
    if let Some(eta) = s.eta_s {
        let _ = write!(h, " &middot; eta {eta:.0}&thinsp;s");
    }
    h.push_str("</p>");

    if !s.workers.is_empty() {
        h.push_str(
            "<h2>workers</h2><table><tr><th>id</th><th>pid</th><th>state</th>\
             <th>done</th><th>failed</th><th>current job</th><th>last beat</th></tr>",
        );
        for w in &s.workers {
            let state = match (w.alive, w.exit_ok) {
                (true, _) => "running".to_string(),
                (false, Some(true)) => "exited ok".to_string(),
                (false, _) => "<b>died</b>".to_string(),
            };
            let beat = if w.beat_age_s == f64::MAX {
                "&mdash;".to_string()
            } else {
                format!("{:.1}&thinsp;s ago", w.beat_age_s)
            };
            let _ = write!(
                h,
                "<tr><td>{}</td><td>{}</td><td>{state}</td><td>{}</td><td>{}</td>\
                 <td><code>{}</code></td><td>{beat}</td></tr>",
                esc(&w.id),
                w.pid,
                w.done,
                w.failed,
                esc(&w.current),
            );
        }
        h.push_str("</table>");
    }

    if !s.configs.is_empty() {
        h.push_str(
            "<h2>per-configuration metrics (running)</h2>\
             <table><tr><th>config</th><th>metric</th><th>n</th>\
             <th>mean</th><th>min</th><th>max</th></tr>",
        );
        for (config, metrics) in &s.configs {
            for (k, r) in metrics {
                let _ = write!(
                    h,
                    "<tr><td><code>{}</code></td><td>{}</td><td>{}</td>\
                     <td>{:.4}</td><td>{:.4}</td><td>{:.4}</td></tr>",
                    esc(config),
                    esc(k),
                    r.count,
                    r.mean,
                    r.min,
                    r.max
                );
            }
        }
        h.push_str("</table>");
    }

    if !s.recent.is_empty() {
        h.push_str("<h2>recent jobs</h2><ul>");
        for id in &s.recent {
            let _ = write!(
                h,
                "<li><a href=\"/job/{id}\"><code>{id}</code></a></li>",
                id = esc(id)
            );
        }
        h.push_str("</ul>");
    }
    h.push_str(
        "<p><a href=\"/status\">/status</a> &middot; <a href=\"/jobs\">/jobs</a></p></body></html>",
    );
    h
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::WorkerState;
    use std::collections::BTreeMap;

    fn demo_status() -> FleetStatus {
        FleetStatus {
            campaign: "unit".into(),
            total: 2,
            done: 1,
            failed: 0,
            jobs: vec![
                ("a=1-s0".into(), crate::status::JobView::Done),
                (
                    "a=2-s0".into(),
                    crate::status::JobView::Claimed("w0".into()),
                ),
            ],
            workers: vec![WorkerState {
                id: "w0".into(),
                pid: 17,
                alive: true,
                exit_ok: None,
                done: 1,
                failed: 0,
                current: "a=2-s0".into(),
                beat_age_s: 0.4,
            }],
            configs: BTreeMap::new(),
            recent: vec!["a=1-s0".into()],
            elapsed_s: 3.5,
            eta_s: Some(3.5),
        }
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let (head, body) = out.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_status_jobs_html_and_404() {
        let dir = std::env::temp_dir().join(format!("mindgap-http-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("jobs")).unwrap();
        std::fs::write(dir.join("jobs/a=1-s0.json"), "{\"id\":\"a=1-s0\"}").unwrap();
        std::fs::create_dir_all(dir.join("timelines")).unwrap();
        std::fs::write(
            dir.join("timelines/a=1-s0.jsonl"),
            "{\"t_ns\":5,\"node\":0,\"kind\":\"conn_event\"}\n",
        )
        .unwrap();

        let state = Arc::new(DashState {
            status: Mutex::new(demo_status()),
            store_dir: dir.clone(),
        });
        let server = HttpServer::start(0, state).unwrap();
        let addr = server.addr();

        let (head, body) = get(addr, "/status");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"));
        assert!(body.contains("\"campaign\":\"unit\""));

        let (_, jobs) = get(addr, "/jobs");
        assert!(jobs.contains("\"status\":\"claimed\""));
        assert!(jobs.contains("\"worker\":\"w0\""));

        let (head, html) = get(addr, "/");
        assert!(head.contains("text/html"));
        assert!(html.contains("campaign <code>unit</code>"));
        assert!(html.contains("running"));

        let (_, drill) = get(addr, "/job/a=1-s0");
        assert!(drill.contains("\"artifact\":{\"id\":\"a=1-s0\"}"));
        assert!(drill.contains("\"kinds\":{\"conn_event\":1}"));

        let (head, _) = get(addr, "/job/../../etc/passwd");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_request_line_is_routed_by_its_path() {
        let state = Arc::new(DashState {
            status: Mutex::new(demo_status()),
            store_dir: std::env::temp_dir(),
        });
        let server = HttpServer::start(0, state).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET ").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        stream
            .write_all(b"/status HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let (head, body) = out.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("application/json"), "{head}");
        assert!(body.contains("\"campaign\":\"unit\""));
        server.stop();
    }
}
