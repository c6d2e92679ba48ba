//! Shared helpers for the `nonrec-serve` integration suites
//! (`tests/server.rs`, `tests/server_soak.rs`): spawn the real binaries
//! (`nonrec-serve`, `nonrec-route`), scrape the `listening on HOST:PORT`
//! banner, connect clients, kill the processes on drop.

#![allow(dead_code)] // each suite uses a subset of the helpers

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use server::Client;

/// How long a test client waits for an answer before its read fails: far
/// beyond any answer the suites wait for, so only a lost one trips it.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

fn connect(addr: &str) -> Client {
    let client = Client::connect(addr).unwrap_or_else(|e| panic!("connect to {addr}: {e}"));
    client
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("set the read timeout");
    client
}

fn spawn_banner_process(binary: &str, args: &[&str]) -> (Child, String) {
    let mut child = Command::new(binary)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {binary}: {e}"));
    let stdout = child.stdout.take().expect("captured stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (child, addr)
}

/// A spawned `nonrec-serve` process bound to an OS-assigned port.
pub struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Spawn `nonrec-serve --addr 127.0.0.1:0 <extra...>` and wait for its
    /// listen banner.
    pub fn spawn(extra: &[&str]) -> ServerProc {
        let args: Vec<&str> = ["--addr", "127.0.0.1:0"]
            .into_iter()
            .chain(extra.iter().copied())
            .collect();
        let (child, addr) = spawn_banner_process(env!("CARGO_BIN_EXE_nonrec-serve"), &args);
        ServerProc { child, addr }
    }

    /// A fresh client connection to the spawned server.
    pub fn client(&self) -> Client {
        connect(&self.addr)
    }

    /// The server's bound address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Kill the server now (SIGKILL — in-flight requests die with it),
    /// simulating a shard crash for the requeue scenarios.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A spawned `nonrec-route` process fronting the given backends.
pub struct RouterProc {
    child: Child,
    addr: String,
}

impl RouterProc {
    /// Spawn `nonrec-route --addr 127.0.0.1:0 --backend <b> ...` and wait
    /// for its listen banner.
    pub fn spawn(backends: &[&str], extra: &[&str]) -> RouterProc {
        let mut args: Vec<&str> = vec!["--addr", "127.0.0.1:0"];
        for backend in backends {
            args.push("--backend");
            args.push(backend);
        }
        args.extend(extra.iter().copied());
        let (child, addr) = spawn_banner_process(env!("CARGO_BIN_EXE_nonrec-route"), &args);
        RouterProc { child, addr }
    }

    /// A fresh client connection to the spawned router.
    pub fn client(&self) -> Client {
        connect(&self.addr)
    }

    /// The router's bound address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The router process's id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for RouterProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
