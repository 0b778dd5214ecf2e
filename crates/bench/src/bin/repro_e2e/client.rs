//! Closed-loop keep-alive HTTP clients: each sends its next request
//! only after the previous response is complete, times every request
//! from the first byte written to the last body byte read, and checks
//! every body against the gate.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::gate::{self, Failure};
use crate::workloads::{Class, ClientPlan, TEMPLATES};

/// Socket read/write timeout; a request that exceeds it is a failure.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One keep-alive connection with its receive buffer.
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Connection {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Send `wire` and read one complete response; returns the status
    /// and the body (borrowed from the connection's buffer).
    pub fn round_trip(&mut self, wire: &[u8]) -> std::io::Result<(u16, &[u8])> {
        self.stream.write_all(wire)?;
        self.buf.clear();
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let (status, body_len) = parse_head(&self.buf[..head_end]).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response head")
        })?;
        while self.buf.len() < head_end + body_len {
            self.fill()?;
        }
        Ok((status, &self.buf[head_end..head_end + body_len]))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk)? {
            0 => Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Status code and `Content-Length` of a response head.
fn parse_head(head: &[u8]) -> Option<(u16, usize)> {
    let head = std::str::from_utf8(head).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut body_len = 0;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                body_len = value.trim().parse().ok()?;
            }
        }
    }
    Some((status, body_len))
}

/// One correct response as its client saw it. Twelve bytes a sample
/// keep the log of a run of several hundred thousand requests out of
/// the process's peak RSS.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Index into [`TEMPLATES`].
    pub template: u8,
    /// When the last body byte was read, in µs since the phase began:
    /// what places the sample in a window of the run.
    pub done_us: u32,
    /// First byte written to last body byte read, saturating at 4.29 s.
    pub latency_ns: u32,
}

/// What one client observed over a phase.
#[derive(Default)]
pub struct ClientLog {
    /// Every correct response, in the order they completed.
    pub ok: Vec<Sample>,
    pub attempted: u64,
    pub non_2xx: u64,
    pub body_mismatch: u64,
    pub io_errors: u64,
    /// Update requests acknowledged with the expected body, by index.
    pub acked_updates: Vec<u64>,
}

impl ClientLog {
    pub fn failed(&self) -> u64 {
        self.non_2xx + self.body_mismatch + self.io_errors
    }

    fn record(&mut self, outcome: Result<(), Failure>) {
        match outcome {
            Ok(()) => {}
            Err(Failure::Status(_)) => self.non_2xx += 1,
            Err(Failure::BodyMismatch) => self.body_mismatch += 1,
            Err(Failure::Io) => self.io_errors += 1,
        }
    }
}

/// When a client stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many requests (warm-up: fixed work).
    Count(u64),
    /// At this instant (the measured phase: fixed wall time).
    Deadline(Instant),
}

/// Run one closed-loop client over its plan, starting at request
/// `first`; `epoch` is when the phase began.
pub fn run_client(
    addr: SocketAddr,
    plan: &ClientPlan,
    first: u64,
    until: Until,
    epoch: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut index = first;
    let mut conn = Connection::open(addr).ok();
    loop {
        match until {
            Until::Count(n) if index - first >= n => break,
            Until::Deadline(t) if Instant::now() >= t => break,
            _ => {}
        }
        let request = plan.request(index);
        log.attempted += 1;
        let start = Instant::now();
        let outcome = match conn.as_mut().map(|c| c.round_trip(&request.wire)) {
            Some(Ok((status, body))) => gate::check(request.expect, status, body),
            // Refused, reset or timed out: count it and reconnect.
            Some(Err(_)) | None => {
                conn = Connection::open(addr).ok();
                Err(Failure::Io)
            }
        };
        let done = Instant::now();
        if outcome.is_ok() {
            log.ok.push(Sample {
                template: request.template as u8,
                done_us: u32::try_from((done - epoch).as_micros()).unwrap_or(u32::MAX),
                latency_ns: u32::try_from((done - start).as_nanos()).unwrap_or(u32::MAX),
            });
            if TEMPLATES[request.template].class == Class::Update {
                log.acked_updates.push(index);
            }
        }
        log.record(outcome);
        index += 1;
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_head_parses_status_and_length() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\ncontent-length: 12\r\n\r\n";
        assert_eq!(parse_head(head), Some((200, 12)));
        assert_eq!(
            parse_head(b"HTTP/1.1 503 Service Unavailable\r\n\r\n"),
            Some((503, 0))
        );
        assert_eq!(parse_head(b"garbage\r\n\r\n"), None);
        assert_eq!(find(b"ab\r\n\r\ncd", b"\r\n\r\n"), Some(2));
    }
}
