//! Spawning, probing and stopping `lsi serve`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use lsi_obs::Json;

use crate::client::{query_path, Conn};
use crate::sys;

/// A running daemon. Dropping it without [`Daemon::stop`] kills it.
pub struct Daemon {
    child: Child,
    /// Kept open so the final report written at drain has a reader.
    stdout: BufReader<ChildStdout>,
    pub pid: u32,
    pub addr: SocketAddr,
    /// Spawn to the first 200 answer.
    pub cold_start: Duration,
}

impl Daemon {
    /// Spawn `lsi serve db` on an ephemeral port and wait for its first
    /// 200 answer to `probe`. `query_log` arms `LSI_QUERY_LOG`.
    pub fn start(
        lsi: &Path,
        db: &Path,
        probe: &str,
        query_log: Option<&Path>,
    ) -> Result<Daemon, String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(lsi);
        cmd.arg("serve")
            .arg(db)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .env_remove("LSI_QUERY_LOG")
            .env_remove("LSI_FAILPOINTS");
        if let Some(log) = query_log {
            cmd.env("LSI_QUERY_LOG", log);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn lsi serve: {e}"))?;
        let pid = child.id();
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("lsi serve did not announce its address: {line:?}"));
        };
        let mut daemon = Daemon {
            child,
            stdout,
            pid,
            addr,
            cold_start: Duration::ZERO,
        };
        let path = query_path(probe, 10);
        let answered = sys::wait_for(Duration::from_secs(60), || {
            Conn::open(addr)
                .and_then(|mut c| c.get(&path))
                .is_ok_and(|r| r.status == 200)
        });
        if !answered {
            daemon.stop();
            return Err("lsi serve never answered 200".into());
        }
        daemon.cold_start = t0.elapsed();
        Ok(daemon)
    }

    /// `GET /stats`.
    pub fn stats(&self) -> Result<Json, String> {
        let reply = Conn::open(self.addr)
            .and_then(|mut c| c.get("/stats"))
            .map_err(|e| format!("/stats: {e}"))?;
        let text = String::from_utf8_lossy(&reply.body);
        lsi_obs::parse_json(&text).map_err(|e| format!("/stats is not JSON: {e:?}"))
    }

    /// SIGTERM, then wait for the drain (SIGKILL after 20 s). True
    /// when the daemon drained and exited 0 after printing its report.
    pub fn stop(mut self) -> bool {
        sys::terminate(self.pid);
        let exited = sys::wait_for(Duration::from_secs(20), || {
            matches!(self.child.try_wait(), Ok(Some(_)))
        });
        if !exited {
            let _ = self.child.kill();
        }
        let mut report = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut report);
        let status = self.child.wait();
        exited && status.is_ok_and(|s| s.success()) && report.contains("\"results\"")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Counter `key` of a `/stats` document.
pub fn stat(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}
