//! A minimal HTTP/1.1 keep-alive client and the closed-loop load
//! generator: each caller thread owns one connection and sends its next
//! query only after reading the previous reply; the loop pauses between
//! slices of the window.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::inputs::Rng;
use crate::sys;

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A complete response.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server closes the connection after this reply.
    pub close: bool,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// `GET path` and read the whole reply.
    pub fn get(&mut self, path: &str) -> std::io::Result<Reply> {
        let req = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.writer.write_all(req.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the head".into()));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad length {v:?}")))?;
                } else if k.eq_ignore_ascii_case("connection") {
                    close = v.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body,
            close,
        })
    }
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The `/query` path for `text`, top `z`.
pub fn query_path(text: &str, z: usize) -> String {
    let mut q = String::with_capacity(text.len());
    for b in text.bytes() {
        match b {
            b' ' => q.push('+'),
            b if b.is_ascii_alphanumeric() => q.push(b as char),
            b => q.push_str(&format!("%{b:02X}")),
        }
    }
    format!("/query?q={q}&top={z}")
}

/// One request of the closed loop.
pub struct Sample {
    /// Index into the query stream.
    pub query: u32,
    /// Write of the request to end of the reply.
    pub latency: Duration,
    /// The slice the request was sent in.
    pub slice: u32,
    /// HTTP status, or 0 when the exchange failed.
    pub status: u16,
    pub body: Vec<u8>,
}

/// What the closed loop measured.
pub struct LoadResult<T> {
    pub samples: Vec<Sample>,
    /// Seconds of traffic in each slice.
    pub slice_s: Vec<f64>,
    /// On-CPU seconds of the caller threads.
    pub client_cpu_s: f64,
    /// `between`'s reading before the first slice and after each one.
    pub readings: Vec<T>,
}

/// Which slice the callers are sending in, if any.
#[derive(Default)]
struct Phase {
    slice: Option<u32>,
    in_flight: usize,
    done: bool,
}

struct Gate {
    phase: Mutex<Phase>,
    changed: Condvar,
}

impl Gate {
    fn lock(&self) -> MutexGuard<'_, Phase> {
        self.phase.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, g: MutexGuard<'a, Phase>) -> MutexGuard<'a, Phase> {
        self.changed.wait(g).unwrap_or_else(|e| e.into_inner())
    }
}

/// Run `callers` closed-loop callers against `addr` for `slices` slices
/// of `slice_len` traffic each. Each caller walks the query stream from
/// its own seeded offset. Between slices the callers pause: every reply
/// in flight is read, then `between` runs on a quiet daemon and the
/// next slice starts. `between` also runs once before the first slice.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<T>(
    addr: SocketAddr,
    queries: &[String],
    z: usize,
    callers: usize,
    slice_len: Duration,
    slices: u32,
    seed: u64,
    mut between: impl FnMut() -> T,
) -> LoadResult<T> {
    let paths: Vec<String> = queries.iter().map(|q| query_path(q, z)).collect();
    let mut rng = Rng::new(seed);
    let offsets: Vec<usize> = (0..callers)
        .map(|_| rng.range(0, paths.len() - 1))
        .collect();
    let gate = Gate {
        phase: Mutex::new(Phase::default()),
        changed: Condvar::new(),
    };
    let mut all = Vec::new();
    let mut client_cpu_s = 0.0;
    let mut slice_s = Vec::with_capacity(slices as usize);
    let mut readings = Vec::with_capacity(slices as usize + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = offsets
            .iter()
            .map(|&start| {
                let (paths, gate) = (&paths, &gate);
                s.spawn(move || caller(addr, paths, start, gate))
            })
            .collect();
        readings.push(between());
        for i in 0..slices {
            let t0 = Instant::now();
            gate.lock().slice = Some(i);
            gate.changed.notify_all();
            std::thread::sleep(slice_len);
            let mut g = gate.lock();
            g.slice = None;
            while g.in_flight > 0 {
                g = gate.wait(g);
            }
            drop(g);
            slice_s.push(t0.elapsed().as_secs_f64());
            readings.push(between());
        }
        gate.lock().done = true;
        gate.changed.notify_all();
        for h in handles {
            let (samples, cpu_s) = h.join().expect("caller thread panicked");
            all.extend(samples);
            client_cpu_s += cpu_s;
        }
    });
    LoadResult {
        samples: all,
        slice_s,
        client_cpu_s,
        readings,
    }
}

fn caller(addr: SocketAddr, paths: &[String], start: usize, gate: &Gate) -> (Vec<Sample>, f64) {
    let cpu0 = sys::thread_self_cpu_s();
    let mut out = Vec::with_capacity(16_384);
    let mut conn = Conn::open(addr).ok();
    let mut i = start;
    loop {
        let slice = {
            let mut g = gate.lock();
            loop {
                if g.done {
                    return (out, sys::thread_self_cpu_s() - cpu0);
                }
                if let Some(slice) = g.slice {
                    g.in_flight += 1;
                    break slice;
                }
                g = gate.wait(g);
            }
        };
        let q = i % paths.len();
        i += 1;
        let t = Instant::now();
        let reply = match conn.as_mut() {
            Some(c) => c.get(&paths[q]),
            None => Err(bad("no connection".into())),
        };
        let latency = t.elapsed();
        let (status, body) = match reply {
            Ok(r) => {
                if r.close {
                    // The daemon caps requests per connection.
                    conn = Conn::open(addr).ok();
                }
                (r.status, r.body)
            }
            Err(_) => {
                conn = Conn::open(addr).ok();
                (0, Vec::new())
            }
        };
        out.push(Sample {
            query: q as u32,
            latency,
            slice,
            status,
            body,
        });
        gate.lock().in_flight -= 1;
        gate.changed.notify_all();
    }
}
