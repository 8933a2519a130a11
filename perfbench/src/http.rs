//! A minimal keep-alive HTTP/1.1 client for the benchmark's loopback
//! connections, and the parser for `/query` answers used by the bitwise
//! check.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::stats::Outcome;

/// Client-side read/write deadline per request: a request that takes
/// longer counts as a timeout failure.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// One persistent client connection. Reconnects lazily after a failure
/// or a server-side close.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

/// A response: status and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// The server asked to close the connection after this response.
    pub close: bool,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None, buf: Vec::new() }
    }

    /// Sends one request and reads its response. A transport failure
    /// comes back as the [`Outcome`] it counts as.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Response, Outcome> {
        let result = self.try_request(method, path, body);
        match &result {
            Ok(resp) if !resp.close => {}
            _ => self.stream = None,
        }
        result.map_err(|e| match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => Outcome::Timeout,
            _ => Outcome::Socket(e.to_string()),
        })
    }

    fn try_request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, REQUEST_TIMEOUT)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            s.set_write_timeout(Some(REQUEST_TIMEOUT))?;
            self.stream = Some(s);
            self.buf.clear();
        }
        let stream = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        let mut req = head.into_bytes();
        req.extend_from_slice(body.as_bytes());
        stream.write_all(&req)?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((head_len, resp)) = parse_response(&self.buf)? {
                self.buf.drain(..head_len);
                return Ok(resp);
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg.to_string())
}

/// Parses one complete response from the front of `buf`: `Ok(None)` while
/// more bytes are needed, else the bytes it spans and the response.
/// Responses must carry `Content-Length` (the server always sends it).
pub fn parse_response(buf: &[u8]) -> std::io::Result<Option<(usize, Response)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut content_length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse::<usize>().map_err(|_| invalid("bad length"))?);
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    let len = content_length.ok_or_else(|| invalid("response without Content-Length"))?;
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let body = String::from_utf8(buf[head_end + 4..total].to_vec())
        .map_err(|_| invalid("non-UTF-8 body"))?;
    Ok(Some((total, Response { status, body, close })))
}

/// One ranked user of a `/query` answer, with the score's exact bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedBits {
    pub user: u64,
    pub score_bits: u64,
}

/// An engine answer in the form [`parse_answer`] gives.
pub fn answer_bits(users: &[tklus_core::RankedUser]) -> Vec<RankedBits> {
    users.iter().map(|u| RankedBits { user: u.user.0, score_bits: u.score.to_bits() }).collect()
}

/// Parses a complete `/query` answer:
/// `{"users":[{"user":U,"score":S},...],"completeness":"complete"}`.
/// Scores are rendered shortest-round-trip, so parsing them recovers the
/// engine's `f64` bit for bit. A degraded answer is an error: the
/// benchmark only accepts full answers.
pub fn parse_answer(body: &str) -> Result<Vec<RankedBits>, String> {
    let rest = body.strip_prefix("{\"users\":[").ok_or("answer must start with a users array")?;
    let (list, tail) = rest.split_once(']').ok_or("unterminated users array")?;
    if tail != ",\"completeness\":\"complete\"}" {
        return Err(format!("answer is not complete: {tail}"));
    }
    if list.is_empty() {
        return Ok(Vec::new());
    }
    let list = list.strip_prefix('{').and_then(|l| l.strip_suffix('}')).ok_or("bad user entry")?;
    list.split("},{")
        .map(|entry| {
            let rest = entry.strip_prefix("\"user\":").ok_or("entry must start with user")?;
            let (user, score) = rest.split_once(",\"score\":").ok_or("entry lacks a score")?;
            let user: u64 = user.parse().map_err(|_| format!("bad user id {user:?}"))?;
            let score: f64 = score.parse().map_err(|_| format!("bad score {score:?}"))?;
            Ok(RankedBits { user, score_bits: score.to_bits() })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_in_pieces() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}\
                    HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\ncontent-length: 3\r\n\r\nbad";
        for cut in 0..40 {
            assert_eq!(parse_response(&raw[..cut]).unwrap(), None, "cut {cut}");
        }
        let (used, first) = parse_response(raw).unwrap().unwrap();
        assert_eq!(first, Response { status: 200, body: "{}".into(), close: false });
        let (_, second) = parse_response(&raw[used..]).unwrap().unwrap();
        assert_eq!(second, Response { status: 503, body: "bad".into(), close: true });
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn answer_scores_keep_their_bits() {
        let scores = [2.010111701431777f64, 0.1 + 0.2, 1e-300, 5.0];
        let body = format!(
            "{{\"users\":[{{\"user\":4073,\"score\":{}}},{{\"user\":1,\"score\":{}}},\
             {{\"user\":2,\"score\":{}}},{{\"user\":3,\"score\":{}}}],\"completeness\":\"complete\"}}",
            scores[0], scores[1], scores[2], scores[3]
        );
        let parsed = parse_answer(&body).unwrap();
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[0].user, 4073);
        for (p, s) in parsed.iter().zip(scores) {
            assert_eq!(p.score_bits, s.to_bits());
        }
        // One ULP away is a different answer.
        let off = f64::from_bits(scores[1].to_bits() + 1);
        let body_off = body.replace(&scores[1].to_string(), &off.to_string());
        assert_ne!(parse_answer(&body_off).unwrap()[1].score_bits, scores[1].to_bits());
    }

    #[test]
    fn empty_and_degraded_answers() {
        assert_eq!(parse_answer("{\"users\":[],\"completeness\":\"complete\"}").unwrap(), vec![]);
        let degraded =
            "{\"users\":[],\"completeness\":\"degraded\",\"cells_processed\":2,\"cells_total\":9}";
        assert!(parse_answer(degraded).is_err());
        assert!(parse_answer("{\"error\":\"QueueFull\"}").is_err());
        assert!(parse_answer(
            "{\"users\":[{\"user\":x,\"score\":1}],\"completeness\":\"complete\"}"
        )
        .is_err());
    }
}
