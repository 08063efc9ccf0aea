//! Helpers shared by the `rvsim-cli` integration tests.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// Whether this sandbox allows loopback sockets; prints why a test skips
/// when it does not.
pub fn loopback_available() -> bool {
    match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(_) => true,
        Err(e) => {
            eprintln!("skipping loopback test: cannot bind 127.0.0.1: {e}");
            false
        }
    }
}

/// A `rvsim-cli serve --tcp` child on an ephemeral loopback port, killed on
/// drop so a panicking assertion never leaks a listening process.
pub struct ServeChild {
    child: Child,
    /// The address the child's startup banner reports.
    pub addr: SocketAddr,
}

impl ServeChild {
    /// Spawn `rvsim-cli serve --tcp --addr 127.0.0.1:0` plus `extra_args`
    /// and wait for the startup banner, whose first line names the bound
    /// address (`rvsim-net [router ]listening on http://IP:PORT ...`).
    pub fn spawn(extra_args: &[&str]) -> ServeChild {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rvsim-cli"))
            .args(["serve", "--tcp", "--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("serve child spawns");
        let mut banner = String::new();
        let mut reader = std::io::BufReader::new(child.stdout.take().expect("stdout piped"));
        reader.read_line(&mut banner).expect("banner line");
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("unexpected serve banner `{}`", banner.trim()));
        // Keep draining the child's stdout so it never blocks on a full pipe.
        std::thread::spawn(move || for _ in reader.lines().map_while(Result::ok) {});
        ServeChild { child, addr }
    }

    /// SIGKILL — the backend gets no chance to flush or say goodbye.
    pub fn kill_dead(&mut self) {
        self.child.kill().expect("kill -9 lands");
        self.child.wait().expect("child reaped");
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
