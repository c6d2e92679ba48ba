//! A small synchronous client for the line-delimited JSON protocol.
//!
//! Used by `tests/server.rs` (driving a spawned `nonrec-serve` binary),
//! the `serve` bench target, and anything else that wants to talk to the
//! server without hand-rolling the framing.
//!
//! Two modes:
//!
//! * [`Client::request`] — classic one-request-per-round-trip;
//! * [`Client::send_all`] / [`Client::recv`] — **pipelining**: queue any
//!   number of requests in one buffered write, then read the responses.
//!   Responses to decision verbs arrive in *completion* order, so give
//!   every pipelined request an `id` and correlate on the echo.
//!   [`Client::recv_raw`] drains a whole burst of responses at chunk
//!   granularity for callers that want to defer parsing.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::{self, Value};

/// One connection to a server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a server address.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Bound how long a read waits for the server (`None`: forever), so a
    /// lost answer fails the caller with an error instead of hanging it.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Send one request value, wait for its one-line response, parse it.
    pub fn request(&mut self, request: &Value) -> std::io::Result<Value> {
        let line = self.request_line(&request.render())?;
        json::parse(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("server sent invalid JSON: {e}"),
            )
        })
    }

    /// Send a raw request line (no trailing newline) and return the raw
    /// response line — useful for testing malformed-input handling.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// Queue one request without waiting for its response (pipelining).
    /// Pair with [`Client::recv`]; correlate by `id`.
    pub fn send(&mut self, request: &Value) -> std::io::Result<()> {
        self.send_line(&request.render())
    }

    /// Queue many requests in **one** buffered write + flush — the client
    /// half of the pipelined protocol (one syscall for the whole burst).
    pub fn send_all(&mut self, requests: &[Value]) -> std::io::Result<()> {
        let mut framed = String::new();
        for request in requests {
            framed.push_str(&request.render());
            framed.push('\n');
        }
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()
    }

    /// Read the next response line and parse it.  With pipelined decision
    /// verbs this is the *next completed* response, not necessarily the
    /// answer to the oldest queued request.
    pub fn recv(&mut self) -> std::io::Result<Value> {
        let line = self.recv_line()?;
        json::parse(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("server sent invalid JSON: {e}"),
            )
        })
    }

    /// Read raw bytes until `lines` complete `\n`-terminated responses
    /// have arrived, appending them (newlines included) to `buf` without
    /// parsing or even splitting them.  This is the bulk-drain half of the
    /// pipelined protocol: a caller that has queued a large burst with
    /// [`Client::send_all`] can pull every response off the socket at
    /// chunk granularity and defer JSON parsing until after the transfer —
    /// which matters when the client shares cores with the server and
    /// per-response parsing would backpressure the very pipeline being
    /// exercised.
    pub fn recv_raw(&mut self, mut lines: usize, buf: &mut Vec<u8>) -> std::io::Result<()> {
        while lines > 0 {
            let chunk = self.reader.fill_buf()?;
            if chunk.is_empty() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("server closed the connection with {lines} responses outstanding"),
                ));
            }
            let mut consumed = chunk.len();
            for (i, &b) in chunk.iter().enumerate() {
                if b == b'\n' {
                    lines -= 1;
                    if lines == 0 {
                        consumed = i + 1;
                        break;
                    }
                }
            }
            buf.extend_from_slice(&chunk[..consumed]);
            self.reader.consume(consumed);
        }
        Ok(())
    }

    /// A second handle to the write half of the connection, so a replay
    /// harness can stream requests from one thread while this client's
    /// reader drains responses on another.
    pub fn writer_clone(&self) -> std::io::Result<TcpStream> {
        self.writer.try_clone()
    }

    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        // One write per request: a separate newline write would emit its
        // own TCP segment under TCP_NODELAY.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()
    }

    fn recv_line(&mut self) -> std::io::Result<String> {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end_matches('\n').to_string())
    }
}
