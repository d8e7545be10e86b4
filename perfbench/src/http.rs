//! A minimal HTTP/1.1 client: one keep-alive connection per caller, each
//! request waiting for its reply (a closed loop).

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Replies slower than this count as timeouts.
const TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    host: String,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            host: addr.to_string(),
        })
    }

    /// Sends one request and reads its reply: `(status, body)`.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, Vec<u8>)> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            self.host,
            body.len()
        );
        self.writer.write_all(req.as_bytes())?;
        read_response(&mut self.reader)
    }
}

fn read_response(r: &mut impl BufRead) -> io::Result<(u16, Vec<u8>)> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
    let mut len = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated headers",
            ));
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::other(format!("bad Content-Length {v:?}")))?;
            }
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok((status, body))
}

/// One request on a fresh connection that is closed afterwards.
pub fn once(addr: &str, method: &str, path: &str) -> io::Result<(u16, String)> {
    let mut c = Conn::open(addr)?;
    let req = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: 0\r\n\r\n");
    c.writer.write_all(req.as_bytes())?;
    let (status, body) = read_response(&mut c.reader)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}
