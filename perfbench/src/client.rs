//! A minimal HTTP/1.1 client on `std::net::TcpStream`.
//!
//! The benchmark measures the daemon with its own client rather than
//! `mule_serve::http` or the `loadgen` module, so a change to the serving
//! crate cannot also speed up (or slow down) the side that measures it.
//! It speaks exactly what the benchmark needs: keep-alive requests with a
//! `Content-Length` body, and responses framed by `Content-Length`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body accepted (a `/v1/plan` document for a few hundred
/// targets is tens of kilobytes).
const MAX_BODY: usize = 64 << 20;
/// Longest status or header line accepted.
const MAX_LINE: usize = 8 << 10;

/// One parsed response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    /// The `X-Cache` header, when present.
    pub x_cache: Option<String>,
    pub body: Vec<u8>,
}

/// A keep-alive connection.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn bad(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

impl Connection {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads its whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body);
        self.writer.write_all(&message)?;
        self.read_response()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = Vec::new();
        let n = (&mut self.reader)
            .take(MAX_LINE as u64)
            .read_until(b'\n', &mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        if line.last() != Some(&b'\n') {
            return Err(bad("header line too long"));
        }
        let text = String::from_utf8(line).map_err(|_| bad("header is not UTF-8"))?;
        Ok(text.trim_end_matches(['\r', '\n']).to_string())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let status_line = self.read_line()?;
        let mut parts = status_line.splitn(3, ' ');
        let (version, code) = (parts.next(), parts.next());
        if version != Some("HTTP/1.1") {
            return Err(bad(format!("bad status line `{status_line}`")));
        }
        let status = code
            .and_then(|c| c.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line `{status_line}`")))?;
        let mut length = None;
        let mut x_cache = None;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad(format!("bad header `{line}`")))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let n = value
                    .parse::<usize>()
                    .map_err(|_| bad(format!("bad Content-Length `{value}`")))?;
                if n > MAX_BODY {
                    return Err(bad(format!("{n}-byte body is over the limit")));
                }
                length = Some(n);
            } else if name.eq_ignore_ascii_case("x-cache") {
                x_cache = Some(value.to_string());
            }
        }
        let mut body = vec![0; length.ok_or_else(|| bad("response has no Content-Length"))?];
        self.reader.read_exact(&mut body)?;
        Ok(Response {
            status,
            x_cache,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn reads_keep_alive_responses_framed_by_content_length() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            for reply in [
                "HTTP/1.1 200 OK\r\nX-Cache: hit\r\nContent-Length: 5\r\n\r\nhello",
                "HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n",
            ] {
                let mut head = String::new();
                let mut length = 0;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    if let Some(v) = line.strip_prefix("Content-Length: ") {
                        length = v.trim().parse().unwrap();
                    }
                    head.push_str(&line);
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).unwrap();
                assert!(head.starts_with("POST /v1/plan HTTP/1.1\r\n"));
                assert_eq!(body, b"{}");
                stream.write_all(reply.as_bytes()).unwrap();
            }
        });
        let mut conn = Connection::open(addr).unwrap();
        let first = conn.request("POST", "/v1/plan", b"{}").unwrap();
        assert_eq!(
            first,
            Response {
                status: 200,
                x_cache: Some("hit".into()),
                body: b"hello".to_vec()
            }
        );
        let second = conn.request("POST", "/v1/plan", b"{}").unwrap();
        assert_eq!((second.status, second.body.len()), (503, 0));
        server.join().unwrap();
    }
}
