//! The benchmark's own HTTP/1.1 keep-alive client and the `serve` daemon
//! it drives. Deliberately independent of the program's client and load
//! generator, so the measuring tool does not change with the program.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One persistent connection; requests are strictly sequential.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
            out: Vec::with_capacity(1 << 12),
        })
    }

    /// Send one request and read one response; the body lands in `body`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        payload: &[u8],
        body: &mut Vec<u8>,
    ) -> std::io::Result<u16> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            payload.len()
        )?;
        self.out.extend_from_slice(payload);
        self.stream.write_all(&self.out)?;
        self.read_response(body)
    }

    fn read_response(&mut self, body: &mut Vec<u8>) -> std::io::Result<u16> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("non-UTF-8 response head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("response without content-length"))?;
        let start = head_end + 4;
        while self.buf.len() < start + len {
            self.fill()?;
        }
        body.clear();
        body.extend_from_slice(&self.buf[start..start + len]);
        self.buf.drain(..start + len);
        Ok(status)
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// A running `regmutex-cli serve` child process. Dropping it kills and
/// reaps the process; [`Daemon::shutdown`] drains it gracefully.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawn on an ephemeral port, parse the port from the `listening on`
    /// line, and wait for the first `/healthz` 200.
    pub fn spawn(cli: &Path, workers: usize) -> Result<Daemon, String> {
        let mut child = Command::new(cli)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
            ])
            .env_remove("REGMUTEX_SM_WORKERS")
            .env_remove("REGMUTEX_JOBS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {} serve: {e}", cli.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            stdout: None,
        };
        daemon.addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        break rest
                            .split_whitespace()
                            .next()
                            .unwrap_or_default()
                            .to_string();
                    }
                }
                _ => return Err("serve exited before printing its address".into()),
            }
        };
        daemon.stdout = Some(std::thread::spawn(move || {
            lines.map_while(Result::ok).for_each(drop)
        }));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if matches!(daemon.get("/healthz"), Ok((200, _))) {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err(format!("serve at {} never answered /healthz", daemon.addr));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// One request on a fresh connection.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        payload: &[u8],
    ) -> Result<(u16, Vec<u8>), String> {
        let mut body = Vec::new();
        let status = Client::connect(&self.addr)
            .and_then(|mut c| c.request(method, path, payload, &mut body))
            .map_err(|e| format!("{method} {path}: {e}"))?;
        Ok((status, body))
    }

    pub fn get(&self, path: &str) -> Result<(u16, Vec<u8>), String> {
        self.request("GET", path, b"")
    }

    /// `POST /v1/shutdown`, then wait for the drain to finish.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.request("POST", "/v1/shutdown", b"");
        let mut child = self.child.take().expect("shut down once");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    break child.wait().map_err(|e| e.to_string());
                }
            }
        };
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
        asked?;
        match status? {
            s if s.success() => Ok(()),
            s => Err(format!("serve exited with {s} after shutdown")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
    }
}

/// The counters `serve_*` reads from `/metrics`.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    /// `(le seconds, cumulative count)` of the `/v1/run` latency histogram.
    pub buckets: Vec<(f64, f64)>,
    /// The histogram's `_sum` (seconds) and `_count`.
    pub sum_s: f64,
    pub count: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut s = Scrape::default();
        for line in text.lines() {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(v) = value.parse::<f64>() else {
                continue;
            };
            if let Some(le) = name
                .strip_prefix("regmutex_request_duration_seconds_bucket{le=\"")
                .and_then(|r| r.strip_suffix("\"}"))
            {
                s.buckets.push((le.parse().unwrap_or(f64::INFINITY), v));
            } else if name == "regmutex_request_duration_seconds_sum" {
                s.sum_s = v;
            } else if name == "regmutex_request_duration_seconds_count" {
                s.count = v;
            } else if name == "regmutex_cache_hits_total" {
                s.cache_hits = v;
            } else if name == "regmutex_cache_misses_total" {
                s.cache_misses = v;
            }
        }
        s
    }

    /// Mean of the observations made between `before` and `self`, in ms.
    /// Exact up to the daemon's microsecond sum, unlike the buckets.
    pub fn mean_ms_since(&self, before: &Scrape) -> f64 {
        (self.sum_s - before.sum_s) / (self.count - before.count) * 1e3
    }

    /// Median of the observations made between `before` and `self`,
    /// interpolated within the daemon's histogram bucket, in ms. NaN when
    /// it falls in the first bucket, which has no lower edge to
    /// interpolate from.
    pub fn p50_ms_since(&self, before: &Scrape) -> f64 {
        let delta: Vec<(f64, f64)> = self
            .buckets
            .iter()
            .map(|(le, n)| {
                (
                    *le,
                    n - before
                        .buckets
                        .iter()
                        .find(|(l, _)| l == le)
                        .map_or(0.0, |b| b.1),
                )
            })
            .collect();
        let total = delta.last().map_or(0.0, |b| b.1);
        let mut prev = (0.0, 0.0);
        for (i, (le, n)) in delta.into_iter().enumerate() {
            if n >= total / 2.0 && n > prev.1 {
                if i == 0 {
                    return f64::NAN;
                }
                let hi = if le.is_finite() { le } else { prev.0 };
                return (prev.0 + (hi - prev.0) * (total / 2.0 - prev.1) / (n - prev.1)) * 1e3;
            }
            prev = (le, n);
        }
        f64::NAN
    }
}
