//! `--metrics-addr`: a hand-rolled HTTP GET endpoint serving
//! Prometheus-style text exposition, plus the renderer that builds
//! the body.
//!
//! The server is deliberately tiny: one accept thread, one short-lived
//! thread per scrape, `GET /metrics` (or `GET /`) answers the rendered
//! body, everything else is a 404, every response closes the
//! connection. There is no keep-alive, no chunking, no TLS — a scrape
//! endpoint needs none of that, and the workspace is std-only.

use crate::hist::HistogramSnapshot;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request head we will read before answering 400.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A metrics endpoint bound to `addr`. Rendering is pulled, not
/// pushed: `render` runs on each scrape, so the body always reflects
/// live counters. Dropping the server stops the accept loop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl MetricsServer {
    pub fn bind<F>(addr: &str, render: F) -> std::io::Result<MetricsServer>
    where
        F: Fn() -> String + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = stop.clone();
            let render = Arc::new(render);
            std::thread::Builder::new()
                .name("aware-obs-metrics".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let render = render.clone();
                        let _ = std::thread::Builder::new()
                            .name("aware-obs-scrape".into())
                            .spawn(move || serve_scrape(stream, &*render));
                    }
                })?
        };
        Ok(MetricsServer {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (with the OS-assigned port when bound to :0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the accept loop so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn serve_scrape(mut stream: TcpStream, render: &dyn Fn() -> String) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    // Read until the blank line ending the request head; scrapers
    // send no body.
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n")
                    || head.windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
                if head.len() > MAX_HEAD_BYTES {
                    let _ = write_response(&mut stream, 400, "Bad Request", "request too large\n");
                    return;
                }
            }
            Err(_) => return,
        }
    }
    let request_line = head
        .split(|&b| b == b'\n')
        .next()
        .map(|l| String::from_utf8_lossy(l).trim().to_string())
        .unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let _ = if method != "GET" {
        write_response(&mut stream, 405, "Method Not Allowed", "GET only\n")
    } else if path == "/metrics" || path == "/" {
        write_response(&mut stream, 200, "OK", &render())
    } else {
        write_response(&mut stream, 404, "Not Found", "try /metrics\n")
    };
}

fn write_response(
    stream: &mut TcpStream,
    code: u16,
    reason: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// How a declared scalar appears on the exposition endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone; family `aware_<name>_total`.
    Counter,
    /// Point-in-time reading; family `aware_<name>`.
    Gauge,
    /// Carried by `stats` only: the endpoint serves it in a richer
    /// shape (per-dataset labels, a full summary) or not at all.
    Hidden,
}

/// How a cluster router folds one participant's value into its total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    Sum,
    /// For quantiles, which cannot be summed: the max is the honest
    /// cluster-wide upper bound a scalar can carry.
    Max,
    /// Only the router can know the value (its own uptime, replica
    /// acks); a shard's reading is ignored.
    RouterOwned,
}

/// Whether a JSON `stats` reply must carry the scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// Present since protocol v1; absence is a malformed reply.
    Required,
    /// Added later: missing decodes as 0 so an older peer still parses.
    Lenient,
}

/// One declared scalar metric. A table of these drives every rendering
/// of the value: JSON key, binary wire position (its row index),
/// cluster merge, and exposition family.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub decode: Decode,
    pub merge: Merge,
    pub kind: Kind,
    pub help: &'static str,
}

impl MetricDef {
    /// The exposition family name, or `None` for a hidden scalar.
    pub fn family(&self) -> Option<String> {
        match self.kind {
            Kind::Counter => Some(format!("aware_{}_total", self.name)),
            Kind::Gauge => Some(format!("aware_{}", self.name)),
            Kind::Hidden => None,
        }
    }
}

/// Builds a Prometheus text-format body: `# TYPE` headers, one
/// `name{labels} value` sample per line, histograms rendered as
/// summaries (quantile labels plus `_sum` and `_count`).
#[derive(Debug, Default)]
pub struct TextRender {
    out: String,
}

impl TextRender {
    pub fn new() -> TextRender {
        TextRender::default()
    }

    /// Declares a metric family: `# HELP` + `# TYPE` lines.
    /// `kind` is `counter`, `gauge`, or `summary`.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Every non-hidden scalar of a declared table as its own
    /// unlabeled family; `values[i]` is the reading of `defs[i]`.
    pub fn scalars(&mut self, defs: &[MetricDef], values: &[u64]) {
        for (def, &value) in defs.iter().zip(values) {
            let kind = match def.kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
                Kind::Hidden => continue,
            };
            let family = def.family().expect("a shown scalar has a family");
            self.family(&family, kind, def.help);
            self.sample(&family, &[], value);
        }
    }

    /// One integer sample.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.sample_line(name, labels, &value.to_string());
    }

    /// One float sample.
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.sample_line(name, labels, &format_f64(value));
    }

    /// A histogram snapshot as a summary family: p50/p90/p99/p999
    /// quantile samples plus `_sum` (microseconds) and `_count`.
    pub fn summary(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        for (q, v) in [
            ("0.5", 0.50),
            ("0.9", 0.90),
            ("0.99", 0.99),
            ("0.999", 0.999),
        ]
        .map(|(label, q)| (label, snap.quantile(q)))
        {
            let mut with_q: Vec<(&str, &str)> = labels.to_vec();
            with_q.push(("quantile", q));
            self.sample_line(name, &with_q, &v.to_string());
        }
        self.sample_line(&format!("{name}_sum"), labels, &snap.sum.to_string());
        self.sample_line(&format!("{name}_count"), labels, &snap.count().to_string());
    }

    fn sample_line(&mut self, name: &str, labels: &[(&str, &str)], value: &str) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(value);
        self.out.push('\n');
    }

    pub fn finish(self) -> String {
        self.out
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "NaN".to_string()
    }
}

/// Validates that `body` parses as text exposition: every line is a
/// comment or `name{labels} value` with a numeric value. Returns the
/// number of samples, or the offending line. Used by tests and the CI
/// scrape check.
pub fn validate_exposition(body: &str) -> Result<usize, String> {
    let mut samples = 0;
    for line in body.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value separator: {line:?}"))?;
        if value.parse::<f64>().is_err() && value != "NaN" {
            return Err(format!("non-numeric value: {line:?}"));
        }
        let name = series.split('{').next().unwrap_or("");
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("bad metric name: {line:?}"));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!("unterminated label set: {line:?}"));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let code = response
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = response
            .split("\r\n\r\n")
            .nth(1)
            .unwrap_or_default()
            .to_string();
        (code, body)
    }

    #[test]
    fn serves_rendered_metrics_over_http() {
        let server = MetricsServer::bind("127.0.0.1:0", || {
            let h = LatencyHistogram::new();
            h.record(100);
            h.record(2000);
            let mut r = TextRender::new();
            r.family("aware_commands_total", "counter", "Commands executed.");
            r.sample("aware_commands_total", &[], 42);
            r.family("aware_latency_us", "summary", "Command latency.");
            r.summary("aware_latency_us", &[("kind", "gauge")], &h.snapshot());
            r.finish()
        })
        .unwrap();
        let addr = server.local_addr();

        let (code, body) = http_get(addr, "/metrics");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("aware_commands_total 42"), "{body}");
        assert!(
            body.contains("aware_latency_us{kind=\"gauge\",quantile=\"0.5\"}"),
            "{body}"
        );
        assert!(
            body.contains("aware_latency_us_count{kind=\"gauge\"} 2"),
            "{body}"
        );
        assert_eq!(validate_exposition(&body), Ok(7));

        let (code, _) = http_get(addr, "/nope");
        assert_eq!(code, 404);
    }

    #[test]
    fn root_path_also_answers_and_drop_stops_the_listener() {
        let server = MetricsServer::bind("127.0.0.1:0", || "x 1\n".to_string()).unwrap();
        let addr = server.local_addr();
        let (code, body) = http_get(addr, "/");
        assert_eq!(code, 200);
        assert_eq!(body, "x 1\n");
        drop(server);
        // The listener is gone: either connect fails or the read
        // returns nothing.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = write!(s, "GET /metrics HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = s.read_to_string(&mut out);
            assert!(out.is_empty(), "scrape answered after drop: {out}");
        }
    }

    #[test]
    fn exposition_validator_rejects_garbage() {
        assert!(validate_exposition("# just a comment\n").unwrap() == 0);
        assert_eq!(validate_exposition("a_total 1\nb{x=\"y\"} 2.5\n"), Ok(2));
        assert!(validate_exposition("no-value-here\n").is_err());
        assert!(validate_exposition("name notanumber\n").is_err());
        assert!(validate_exposition("bad name{ 1\n").is_err());
    }
}
