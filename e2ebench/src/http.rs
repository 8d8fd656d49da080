//! A minimal HTTP/1.1 client for `POST /query`, with a client-side
//! deadline on every request: the server sets no socket timeouts, so a
//! hung request must end here, as a counted failure.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-request deadline for connect, write and each read.
pub const DEADLINE: Duration = Duration::from_secs(20);

/// One answered request.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// POST `body` to `path_and_query` and read the whole reply.
pub fn post(addr: SocketAddr, path_and_query: &str, body: &[u8]) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, DEADLINE)?;
    stream.set_read_timeout(Some(DEADLINE))?;
    stream.set_write_timeout(Some(DEADLINE))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "POST {path_and_query} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP reply"))
}

fn parse_reply(raw: &[u8]) -> Option<Reply> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    Some(Reply {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

/// One match of a `/query?format=json` answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Match {
    pub i_id: u64,
    pub video: String,
    pub score: f64,
}

/// Parse `{"matches":[{"i_id":..,"v_id":..,"video":"..","score":..},..]}`.
/// Video names in this benchmark never contain quotes or escapes.
pub fn parse_matches(body: &[u8]) -> Option<Vec<Match>> {
    let text = std::str::from_utf8(body).ok()?;
    let inner = text.strip_prefix("{\"matches\":[")?.strip_suffix("]}")?;
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split("},{")
        .map(|item| {
            let field = |key: &str| -> Option<&str> {
                let at = item.find(&format!("\"{key}\":"))? + key.len() + 3;
                let rest = &item[at..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                Some(&rest[..end])
            };
            Some(Match {
                i_id: field("i_id")?.parse().ok()?,
                video: field("video")?.trim_matches('"').to_string(),
                score: field("score")?.parse().ok()?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_query_json() {
        let body = br#"{"matches":[{"i_id":7,"v_id":2,"video":"news_3","score":0.912345},{"i_id":9,"v_id":4,"video":"sports_0","score":0.5}]}"#;
        let m = parse_matches(body).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(
            m[0],
            Match {
                i_id: 7,
                video: "news_3".into(),
                score: 0.912345
            }
        );
        assert_eq!(m[1].video, "sports_0");
        assert_eq!(parse_matches(br#"{"matches":[]}"#).unwrap(), vec![]);
        assert!(parse_matches(b"not json").is_none());
    }

    #[test]
    fn parses_status_and_body() {
        let r = parse_reply(b"HTTP/1.1 503 Service Unavailable\r\nA: b\r\n\r\nbusy").unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.body, b"busy");
    }
}
