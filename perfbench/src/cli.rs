//! One-shot `lsi` invocations, timed from outside: wall time from
//! spawn to exit, and the child's CPU time from `getrusage`.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::sys;

pub struct CliRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub stdout: String,
}

/// Run `lsi args...` to completion. A non-zero exit is an error.
pub fn run(lsi: &Path, args: &[&str]) -> Result<CliRun, String> {
    let before = sys::children_usage();
    let t0 = Instant::now();
    let out = Command::new(lsi)
        .args(args)
        .stdin(Stdio::null())
        .env_remove("LSI_QUERY_LOG")
        .env_remove("LSI_FAILPOINTS")
        .output()
        .map_err(|e| format!("cannot spawn lsi {}: {e}", args[0]))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::children_usage().cpu_s - before.cpu_s;
    if !out.status.success() {
        return Err(format!(
            "lsi {} exited with {}: {}",
            args[0],
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(CliRun {
        wall_s,
        cpu_s,
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    })
}
