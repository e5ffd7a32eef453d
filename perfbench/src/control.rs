//! The control server: a fixed HTTP service owned by the benchmark,
//! used to read how fast the host is running at each moment.
//!
//! On a shared host the same command's time drifts by 1.5× or more
//! for minutes at a time (neighbours on the same core and cache). The
//! control answers each request with a fixed piece of work (a streaming
//! f64 sweep past the L2, as in the `V_k` scan, and branchy decimal
//! parsing, as in the JSON and text layers) over loopback keep-alive
//! connections. Read next to a measurement, it gives the host's speed
//! relative to nominal, by which the benchmark scales every time it
//! reports. The control's code never changes with the program, so the
//! program's own gains show in full.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::{self, Conn};
use crate::stats::median;

/// Control throughput at the nominal host speed (two callers, one
/// CPU, on a quiet host of the kind the benchmark was written on).
pub const NOMINAL_QPS: f64 = 1000.0;
/// Median latency of one probe request while a CLI command runs, at
/// the nominal host speed.
pub const NOMINAL_PROBE_MS: f64 = 1.85;
/// Gap between probe requests: the probe takes about 2 % of the CPU.
const PROBE_EVERY: Duration = Duration::from_millis(50);

/// Doubles swept per request (8 MB: past the L2, as the exact sweep).
const SWEEP_LEN: usize = 1 << 20;
/// Bytes of comma-separated decimals parsed per request.
const TEXT_LEN: usize = 160 << 10;

struct Work {
    sweep: Vec<f64>,
    text: Vec<u8>,
}

/// A running control server; dropping it stops it and joins its
/// threads.
pub struct Control {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Control {
    pub fn start() -> std::io::Result<Control> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let work = Arc::new(Work::new());
        let stopping = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            for stream in listener.incoming() {
                if stopping.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let work = Arc::clone(&work);
                conns.push(std::thread::spawn(move || serve(stream, &work)));
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(Control {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// Drive the control with `callers` closed-loop callers for `for_`
    /// and return the host's speed relative to nominal (1.0 at
    /// [`NOMINAL_QPS`], below 1 on a slower host).
    pub fn speed(&self, callers: usize, for_: Duration) -> f64 {
        let queries = ["control".to_string()];
        let load = client::closed_loop(self.addr, &queries, 1, callers, for_, 1, 0, || ());
        let ok = load.samples.iter().filter(|s| s.status == 200).count();
        ok as f64 / load.slice_s[0] / NOMINAL_QPS
    }

    /// Run `f` while one request probes the control every
    /// [`PROBE_EVERY`], and return its result with the host's speed
    /// during it: [`NOMINAL_PROBE_MS`] over the median probe latency
    /// (1.0 at nominal speed, below 1 on a slower host). When `f` ends
    /// before the first probe, one probe right after it stands in.
    pub fn speed_during<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        let stop = AtomicBool::new(false);
        let path = client::query_path("control", 1);
        let probe = |conn: &mut Conn| {
            let t0 = Instant::now();
            let reply = conn.get(&path).ok().filter(|r| r.status == 200);
            reply.map(|_| t0.elapsed().as_secs_f64() * 1e3)
        };
        std::thread::scope(|s| {
            let prober = s.spawn(|| {
                let mut latencies = Vec::new();
                let mut conn = Conn::open(self.addr).ok();
                loop {
                    std::thread::sleep(PROBE_EVERY);
                    if stop.load(Ordering::Acquire) {
                        return (latencies, conn);
                    }
                    match conn.as_mut().and_then(|c| probe(c)) {
                        Some(ms) => latencies.push(ms),
                        None => conn = Conn::open(self.addr).ok(),
                    }
                }
            });
            let out = f();
            stop.store(true, Ordering::Release);
            let (mut latencies, conn) = prober.join().expect("probe thread panicked");
            if latencies.is_empty() {
                latencies.extend(conn.and_then(|mut c| probe(&mut c)));
            }
            let speed = if latencies.is_empty() {
                1.0
            } else {
                NOMINAL_PROBE_MS / median(&latencies)
            };
            (out, speed)
        })
    }
}

impl Drop for Control {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the accept loop so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Work {
    fn new() -> Work {
        let mut text = Vec::with_capacity(TEXT_LEN + 32);
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        while text.len() < TEXT_LEN {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            text.extend_from_slice(b"0.");
            let mut y = x;
            for _ in 0..3 + x % 15 {
                text.push(b'0' + (y % 10) as u8);
                y /= 10;
            }
            text.push(b',');
        }
        Work {
            sweep: (0..SWEEP_LEN).map(|i| (i % 1009) as f64 * 1e-3).collect(),
            text,
        }
    }

    fn run(&self) -> f64 {
        let mut acc = [0.0f64; 4];
        for c in black_box(&self.sweep).chunks_exact(4) {
            for (a, x) in acc.iter_mut().zip(c) {
                *a += x * x;
            }
        }
        acc.iter().sum::<f64>() + parse_decimals(black_box(&self.text))
    }
}

/// Sum of the comma-separated `0.ddd` decimals in `text`.
fn parse_decimals(text: &[u8]) -> f64 {
    let (mut sum, mut mantissa, mut scale) = (0.0, 0u64, 1.0f64);
    let mut after_point = false;
    for &b in text {
        match b {
            b'0'..=b'9' => {
                if after_point {
                    mantissa = mantissa.wrapping_mul(10) + u64::from(b - b'0');
                    scale *= 0.1;
                }
            }
            b'.' => after_point = true,
            _ => {
                sum += mantissa as f64 * scale;
                (mantissa, scale, after_point) = (0, 1.0, false);
            }
        }
    }
    sum
}

/// Answer every request on `stream` until the peer closes it.
fn serve(stream: TcpStream, work: &Work) {
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        // Request line and headers, up to the blank line.
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) if line.trim_end().is_empty() => break,
                Ok(_) => {}
            }
        }
        // A body about the size of a top-10 answer.
        let body = format!(
            "{{\"value\":{},\"pad\":\"{}\"}}",
            work.run(),
            "x".repeat(400)
        );
        let reply = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
    }
}
