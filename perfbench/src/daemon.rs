//! Launching, probing and stopping a `cce serve` daemon.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http;
use crate::util::{self, Counts};

const START_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Daemon {
    child: Child,
    pub addr: String,
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `cce serve <args>` on an ephemeral port and waits until it
    /// is ready: `/healthz` answers and `ready(body)` holds. Returns the
    /// daemon and the time from launch to ready.
    pub fn launch(
        cce: &Path,
        args: &[String],
        ready: impl Fn(&str) -> bool,
    ) -> Result<(Daemon, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(cce)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cce.display()))?;
        let out = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            // Forward the bound address, then keep draining so the
            // daemon never blocks on a full pipe.
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut d = Daemon {
            child,
            addr: String::new(),
            stdout: Some(stdout),
        };
        d.addr = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "daemon exited or stalled before listening".to_string())?;
        loop {
            if let Ok((200, body)) = http::once(&d.addr, "GET", "/healthz") {
                if ready(&body) {
                    return Ok((d, t0.elapsed()));
                }
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("daemon never reported ready".into());
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The daemon and its shard workers.
    pub fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.child.id()];
        pids.extend(util::children_of(self.child.id()));
        pids
    }

    /// Summed `VmHWM` of the daemon and its workers, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids().into_iter().map(util::peak_rss_mb).sum()
    }

    pub fn metrics(&self) -> Result<Counts, String> {
        match http::once(&self.addr, "GET", "/metrics") {
            Ok((200, text)) => Ok(Counts::parse(&text)),
            other => Err(format!("GET /metrics failed: {other:?}")),
        }
    }

    /// Graceful stop through `POST /admin/shutdown`; the daemon must exit
    /// with status 0 and leave no worker behind.
    pub fn shutdown(mut self) -> Result<(), String> {
        let workers = util::children_of(self.child.id());
        match http::once(&self.addr, "POST", "/admin/shutdown") {
            Ok((200, _)) => {}
            other => return Err(format!("POST /admin/shutdown failed: {other:?}")),
        }
        let t0 = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if t0.elapsed() < EXIT_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        };
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
        if !status.success() {
            return Err(format!("daemon exited with {status} after shutdown"));
        }
        if workers.iter().any(|&p| wait_gone(p, EXIT_TIMEOUT)) {
            return Err("a shard worker outlived its daemon".into());
        }
        Ok(())
    }
}

/// Waits until `pid` has exited; true if it is still running at the
/// deadline.
fn wait_gone(pid: u32, limit: Duration) -> bool {
    let t0 = Instant::now();
    while util::alive(pid) {
        if t0.elapsed() > limit {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

impl Drop for Daemon {
    /// A daemon not shut down gracefully (a failed run) is killed, and so
    /// are its shard workers; both are waited for.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            return;
        }
        let workers = util::children_of(self.child.id());
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in workers {
            let _ = Command::new("kill")
                .args(["-9", &pid.to_string()])
                .stderr(Stdio::null())
                .status();
            wait_gone(pid, EXIT_TIMEOUT);
        }
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
    }
}
