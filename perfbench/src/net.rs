//! Child server processes and the wire.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use server::json::{self, Value};

/// Pids of every live child, so the watchdog can stop them if a run hangs.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<u32>> {
    LIVE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Stop every live child with `kill -9` (the watchdog path; the normal
/// path stops and waits for each child through [`Proc`]'s `Drop`).
pub fn kill_all() {
    for pid in live().drain(..) {
        let _ = Command::new("kill")
            .args(["-9", &pid.to_string()])
            .stderr(Stdio::null())
            .status();
    }
}

/// Abort the whole run (after stopping every child) if it is still going
/// after `limit`.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {limit:?}; stopping");
        kill_all();
        std::process::exit(3);
    });
}

/// A spawned `nonrec-serve` or `nonrec-route` process, stopped and waited
/// for on drop.
pub struct Proc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

impl Proc {
    /// Spawn `bin` with `args` plus `--addr 127.0.0.1:0`, and wait for the
    /// `listening on HOST:PORT` line.
    pub fn spawn(bin: &Path, args: &[String]) -> std::io::Result<Proc> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        live().push(child.id());
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "{} did not report its address: {line:?}",
                bin.display()
            )));
        };
        Ok(Proc {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        })
    }

    /// Peak resident set size (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(f64::NAN, |kb| kb / 1024.0)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let pid = self.child.id();
        let _ = self.child.kill();
        let _ = self.child.wait();
        live().retain(|&p| p != pid);
    }
}

/// Where the served binaries live.
#[derive(Clone, Debug)]
pub struct Bins {
    /// `nonrec-serve`.
    pub serve: PathBuf,
    /// `nonrec-route`.
    pub route: PathBuf,
}

impl Bins {
    /// The binaries in `dir`.
    pub fn in_dir(dir: &Path) -> Bins {
        Bins {
            serve: dir.join("nonrec-serve"),
            route: dir.join("nonrec-route"),
        }
    }
}

/// A line-framed connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connect, with Nagle off and a read timeout so a lost response fails
    /// the run instead of hanging it.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(256 * 1024, stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one line (a newline is appended).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)
    }

    /// Send pre-framed bytes.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Receive one line, without its newline.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        line.truncate(line.trim_end_matches('\n').len());
        Ok(line)
    }

    /// Hand every complete line already buffered (reading once if none is)
    /// to `each`; returns how many were handled.
    pub fn recv_ready(&mut self, mut each: impl FnMut(&[u8])) -> std::io::Result<usize> {
        let chunk = self.reader.fill_buf()?;
        if chunk.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let mut consumed = 0;
        let mut handled = 0;
        while let Some(pos) = chunk[consumed..].iter().position(|&b| b == b'\n') {
            each(&chunk[consumed..consumed + pos]);
            consumed += pos + 1;
            handled += 1;
        }
        if handled == 0 {
            // A partial line: take the slow path for exactly one line.
            let line = self.recv()?;
            each(line.as_bytes());
            return Ok(1);
        }
        self.reader.consume(consumed);
        Ok(handled)
    }

    /// A second handle to the write half.
    pub fn writer(&self) -> std::io::Result<TcpStream> {
        self.writer.try_clone()
    }

    /// Send one request and parse its response.
    pub fn call(&mut self, line: &str) -> std::io::Result<Value> {
        self.send(line)?;
        let response = self.recv()?;
        json::parse(&response).map_err(|e| std::io::Error::other(format!("bad response: {e}")))
    }
}

/// The `result` of a `stats` request on a fresh connection to `addr`.
pub fn stats(addr: &str) -> std::io::Result<Value> {
    let response = Conn::connect(addr)?.call(r#"{"op":"stats"}"#)?;
    response
        .get("result")
        .cloned()
        .ok_or_else(|| std::io::Error::other("stats response without a result"))
}

/// A counter out of a `stats` result, `path` like `["cache", "hits"]`.
pub fn stat(stats: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(stats, |v, key| v.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Wait until a `stats` request to `addr` is answered; returns when ready.
pub fn wait_ready(addr: &str) -> std::io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match stats(addr) {
            Ok(_) => return Ok(()),
            Err(e) if Instant::now() > deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}
