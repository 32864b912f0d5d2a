//! The `fsc_serve` process under test: spawn, address discovery, stop.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use fsc_serve::{Client, ClientConfig};

/// Client settings for every benchmark connection: the library's retry
/// policy, with a timeout long enough that an fsync stall on a busy host is
/// timed as latency rather than turned into a retry.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        timeout: Duration::from_secs(5),
        ..ClientConfig::default()
    }
}

/// A running `fsc_serve` child process.  Dropping it kills and reaps the
/// process, so no error path leaves a server behind.
pub struct ServerProc {
    child: Child,
    /// Kept open until the process is reaped: the server prints on shutdown,
    /// and a closed pipe would turn that print into a panic.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    reaped: bool,
}

impl ServerProc {
    /// Starts `bin` over `data_dir` on an ephemeral loopback port, in its
    /// default durability mode, and waits for its `serving on <addr>` line.
    pub fn spawn(bin: &Path, data_dir: &Path) -> Result<Self, String> {
        let mut command = Command::new(bin);
        command
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{} exited before serving", bin.display()));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("serving on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                match addr.parse::<SocketAddr>() {
                    Ok(addr) => break addr,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unparsable server address {addr:?}: {e}"));
                    }
                }
            }
        };
        Ok(Self {
            child,
            _stdout: stdout,
            addr,
            reaped: false,
        })
    }

    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends the `Shutdown` frame (every tenant checkpoints) and reaps the process.
    pub fn shutdown(mut self) -> Result<(), String> {
        let result = Client::new(self.addr, client_config())
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"));
        if result.is_err() {
            let _ = self.child.kill();
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("reaping server: {e}"));
        self.reaped = true;
        result?;
        match status? {
            s if s.success() => Ok(()),
            s => Err(format!("server exited with {s}")),
        }
    }

    /// SIGKILL: the crash path, with nothing checkpointed.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.reaped = true;
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
