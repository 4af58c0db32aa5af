//! The load generator's plumbing: a minimal HTTP/1.1 client over one
//! kept-alive connection, the `mr2-serve` child process, and `/proc`
//! readers for CPU time and peak memory.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A request as it goes on the wire.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One response: status and the (de-chunked) body.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One kept-alive client connection with its own read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
        })
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Send `request` and read its whole reply.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.send(request)?;
        self.read_reply(&mut |_| {})
    }

    /// Read more bytes into the buffer; EOF is an error (the server
    /// never closes mid-reply on a healthy run).
    fn fill(&mut self) -> io::Result<()> {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 32 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + 16 * 1024, 0);
        let n = loop {
            match self.stream.read(&mut self.buf[len..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => break other,
            }
        };
        let n = n.inspect_err(|_| self.buf.truncate(len))?;
        self.buf.truncate(len + n);
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }

    /// The next CRLF-terminated line, without its terminator.
    fn line(&mut self) -> io::Result<Vec<u8>> {
        loop {
            if let Some(i) = self.buf[self.pos..].windows(2).position(|w| w == b"\r\n") {
                let line = self.buf[self.pos..self.pos + i].to_vec();
                self.pos += i + 2;
                return Ok(line);
            }
            self.fill()?;
        }
    }

    fn exact(&mut self, n: usize) -> io::Result<&[u8]> {
        while self.buf.len() - self.pos < n {
            self.fill()?;
        }
        let at = self.pos;
        self.pos += n;
        Ok(&self.buf[at..at + n])
    }

    /// Read one reply. For a chunked reply, `on_chunk` sees every chunk
    /// as it arrives (a streamed sweep sends one NDJSON line per chunk).
    pub fn read_reply(&mut self, on_chunk: &mut dyn FnMut(&[u8])) -> io::Result<Reply> {
        let status_line = self.line()?;
        let status = std::str::from_utf8(&status_line)
            .ok()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        let mut chunked = false;
        loop {
            let header = self.line()?;
            if header.is_empty() {
                break;
            }
            let header = String::from_utf8_lossy(&header);
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value.eq_ignore_ascii_case("chunked");
                }
            }
        }
        if !chunked {
            let body = self.exact(length)?.to_vec();
            return Ok(Reply { status, body });
        }
        let mut body = Vec::new();
        loop {
            let size_line = self.line()?;
            let size = std::str::from_utf8(&size_line)
                .ok()
                .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
            if size == 0 {
                self.line()?;
                return Ok(Reply { status, body });
            }
            let data = self.exact(size)?.to_vec();
            self.exact(2)?;
            on_chunk(&data);
            body.extend_from_slice(&data);
        }
    }
}

/// A running `mr2-serve` child; dropping it kills the process and waits
/// for it to exit.
pub struct Server {
    child: Child,
    /// Kept open so the child's stdout never sees a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Start the service on an ephemeral port with two workers and no
    /// access log, a keep-alive cap no run reaches, and everything else
    /// at its default. Returns once the process has announced its
    /// listener.
    pub fn spawn(bin: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--no-access-log",
                "--keep-alive-requests",
                "1000000000",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("mr2-serve listening on http://")
                .and_then(|a| a.parse().ok())
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "mr2-serve did not announce its address (got {line:?})"
            )));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One GET on a fresh connection; the body as text.
    pub fn get(&self, path: &str) -> io::Result<String> {
        let mut conn = Conn::connect(self.addr)?;
        let reply = conn.call(&request_bytes("GET", path, ""))?;
        if reply.status != 200 {
            return Err(io::Error::other(format!("GET {path}: {}", reply.status)));
        }
        String::from_utf8(reply.body).map_err(io::Error::other)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin this thread, and so every thread and process it starts from now
/// on, to the highest-numbered CPU it may run on; returns that CPU, or
/// `None` when the affinity cannot be read or set.
///
/// On a few cores of a shared host, a request that hops between cores
/// waits on cross-core wake-ups whose cost wanders with the neighbours'
/// load; on one core the client and the server hand over by plain
/// context switches.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the kernel writes at most `size` bytes, the length of `mask`.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } < 0 {
        return None;
    }
    let cpu = (0..64 * mask.len())
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes, the length of `one`.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// User plus system CPU seconds of a process, all threads included
/// (`pid` may be `"self"`).
pub fn cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) else {
        return f64::NAN;
    };
    // SAFETY: sysconf only reads a configuration value; it has no
    // preconditions and touches no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    (utime + stime) / hz.max(1) as f64
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
