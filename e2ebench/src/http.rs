//! A minimal HTTP/1.1 client: one request per connection, exactly as the
//! server under test expects (it answers and closes).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::trace::now;

/// One response, with the moment the TCP connection was established.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub connected: Instant,
}

/// Sends one request on a fresh connection and reads the whole response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    let mut s = TcpStream::connect(addr)?;
    let connected = now();
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut msg = Vec::with_capacity(head.len() + body.len());
    msg.extend_from_slice(head.as_bytes());
    msg.extend_from_slice(body);
    s.write_all(&msg)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(bad)?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|h| h.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(bad)?;
    raw.drain(..head_end + 4);
    Ok(Reply { status, body: raw, connected })
}
