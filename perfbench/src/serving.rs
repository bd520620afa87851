//! The serving side, run as a child process of the benchmark binary.
//!
//! Running the servers in their own process keeps the load generator's
//! allocations and threads out of the serving side's memory figure
//! (`rss_mb` is the child's peak resident set) and puts a real process
//! boundary between client and server. The child prints one `ready`
//! line with its addresses, then serves until its standard input
//! closes; the parent therefore cannot leave it running, even when it
//! panics.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use sketch_server::{CoordinatorConfig, ServerConfig};

/// Which serving stack to boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `sketch-serve` server over the whole store.
    Single,
    /// One worker server per partition plus a coordinator.
    Sharded,
}

/// A running serving child.
pub struct Serving {
    child: Child,
    stdin: Option<ChildStdin>,
    /// The endpoint clients query (server or coordinator).
    pub addr: SocketAddr,
    /// Worker servers, in partition order (the server itself for
    /// [`Topology::Single`]).
    pub workers: Vec<SocketAddr>,
}

impl Serving {
    /// Boot the serving stack over `stores` (one store for a single
    /// server, one per partition for a coordinator) with `threads`
    /// workers, and wait until it is ready.
    ///
    /// # Errors
    ///
    /// When the child cannot be spawned or exits before reporting ready.
    pub fn spawn(topology: Topology, stores: &[PathBuf], threads: usize) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        cmd.arg("--serve")
            .arg(match topology {
                Topology::Single => "single",
                Topology::Sharded => "sharded",
            })
            .arg("--threads")
            .arg(threads.to_string());
        for store in stores {
            cmd.arg("--store").arg(store);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut serving = Self {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: Vec::new(),
        };
        read?;
        let mut fields = line.split_whitespace();
        if fields.next() != Some("ready") {
            return Err(std::io::Error::other(format!(
                "serving child did not report ready: {line:?}"
            )));
        }
        let addrs: Vec<SocketAddr> = fields
            .map(|a| a.parse().map_err(std::io::Error::other))
            .collect::<Result<_, _>>()?;
        let Some((&addr, workers)) = addrs.split_first() else {
            return Err(std::io::Error::other("ready line names no address"));
        };
        serving.addr = addr;
        serving.workers = if workers.is_empty() {
            vec![addr]
        } else {
            workers.to_vec()
        };
        Ok(serving)
    }

    /// Peak resident memory of the serving process so far, in MB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Shut the child down and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // Closing stdin is the shutdown signal.
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Serving {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Entry point of the serving child (`--serve single|sharded`).
///
/// # Errors
///
/// A message when the arguments are malformed or a server fails to boot.
pub fn child_main(topology: &str, threads: usize, stores: &[PathBuf]) -> Result<(), String> {
    let threads = threads.max(1);
    let boot = |store: &Path, threads: usize| {
        let mut config = ServerConfig::new(store);
        config.threads = threads;
        sketch_server::start(config).map_err(|e| format!("{}: {e}", store.display()))
    };
    let mut out = std::io::stdout();
    match topology {
        "single" => {
            let [store] = stores else {
                return Err("a single server takes exactly one --store".into());
            };
            let server = boot(store, threads)?;
            writeln!(out, "ready {}", server.addr()).map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            wait_for_eof();
            let _ = server.shutdown();
        }
        "sharded" => {
            if stores.is_empty() {
                return Err("a coordinator needs at least one worker --store".into());
            }
            // Each coordinator front-end thread and its health poller can
            // hold a keep-alive connection to every worker, so workers
            // get two threads more than the coordinator.
            let workers = stores
                .iter()
                .map(|s| boot(s, threads + 2))
                .collect::<Result<Vec<_>, _>>()?;
            let mut config =
                CoordinatorConfig::new(workers.iter().map(|w| w.addr().to_string()).collect());
            config.threads = threads;
            let coordinator =
                sketch_server::start_coordinator(config).map_err(|e| e.to_string())?;
            let mut line = format!("ready {}", coordinator.addr());
            for w in &workers {
                line.push(' ');
                line.push_str(&w.addr().to_string());
            }
            writeln!(out, "{line}").map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            wait_for_eof();
            let _ = coordinator.shutdown();
            for w in workers {
                let _ = w.shutdown();
            }
        }
        other => return Err(format!("unknown topology {other:?}")),
    }
    Ok(())
}

fn wait_for_eof() {
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);
}
