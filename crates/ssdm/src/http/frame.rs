//! The framed wire (thesis §5.1, ch. 7) as a codec on the serving core.
//!
//! * request: `u32` length (LE) + UTF-8 SciSPARQL statement;
//! * response: `u8` status (0 = ok, 1 = error) + `u32` length + UTF-8
//!   payload. SELECT results serialize as TSV (header line of variable
//!   names, then one row per solution, arrays in collection notation);
//!   ASK returns `true`/`false`; updates return `inserted N deleted M`.
//!
//! [`decode`] is restartable — it is re-run over the connection's
//! receive buffer until a whole frame is present — and checks the
//! announced length against the cap before anything is sized by it.
//! [`Statement::parse`] splits the six wire statements from ordinary
//! ones: `SHUTDOWN`, `TENANT` and `USE <tenant>` are the session's own
//! and answered by the event loop; `STATS`, `METRICS`, `CHECKPOINT` and
//! everything else are [`FramedExec`] jobs, admitted and run on a
//! worker like any HTTP request.

use std::sync::PoisonError;

use scisparql::{Answer, Dataset, QueryResult};
use ssdm_obs::Span;

use crate::tenant::{Tenant, TenantRegistry};

use super::results::{self, Table};
use super::router;

/// Default cap on a request or response payload: 64 MiB.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// What one decode attempt over the receive buffer produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// Not enough bytes yet; the frame at the front of the buffer ends
    /// at byte `need` (4 until its length prefix has arrived).
    Incomplete { need: usize },
    /// One payload plus how many buffer bytes it consumed.
    Frame(&'a [u8], usize),
    /// The peer announced a frame over the cap; the unread payload
    /// makes the stream unframeable.
    TooLarge(u32),
}

/// Try to decode one request frame from the front of `buf`.
pub fn decode(buf: &[u8], max_frame: u32) -> Decoded<'_> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Decoded::Incomplete { need: 4 };
    };
    let len = u32::from_le_bytes(*prefix);
    if len > max_frame {
        return Decoded::TooLarge(len);
    }
    let end = 4 + len as usize;
    match buf.get(4..end) {
        Some(payload) => Decoded::Frame(payload, end),
        None => Decoded::Incomplete { need: end },
    }
}

/// Encode one response frame, never exceeding `max_frame`: an oversized
/// payload is replaced by a status-1 "response too large" frame so the
/// client-side framing stays in sync.
pub fn encode(status: u8, payload: &str, max_frame: u32) -> Vec<u8> {
    if payload.len() > max_frame as usize {
        let mut msg = format!(
            "response too large: {} bytes > {max_frame} max; refine the query",
            payload.len()
        );
        msg.truncate(max_frame as usize); // ASCII, safe to cut anywhere
        return encode(1, &msg, max_frame);
    }
    let mut out = Vec::with_capacity(5 + payload.len());
    out.push(status);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Serialize an answer for the framed wire; `ds` keeps the terms a
/// SELECT's ids name.
pub fn render(answer: &Answer, ds: &Dataset) -> String {
    let result = match answer {
        Answer::Solutions { vars, rows } => return results::framed(vars, Table::Slots(rows, ds)),
        Answer::Result(result) => result,
    };
    match result {
        QueryResult::Solutions { vars, rows } => results::framed(vars, Table::Values(rows)),
        QueryResult::Boolean(b) => format!("{b}\n"),
        QueryResult::Graph(g) => ssdm_rdf::ntriples::serialize(g),
        QueryResult::Updated { inserted, deleted } => {
            format!("inserted {inserted} deleted {deleted}\n")
        }
        QueryResult::Text(t) => t.clone(),
    }
}

/// A decoded statement: what the session answers itself, or a job.
#[derive(Debug, PartialEq, Eq)]
pub enum Statement {
    Shutdown,
    Tenant,
    Use(String),
    Exec(FramedExec),
}

/// What a framed statement needs from a worker.
#[derive(Debug, PartialEq, Eq)]
pub enum FramedExec {
    /// The plain-text statistics report for the session's tenant.
    Stats,
    /// The Prometheus dump across every tenant.
    Metrics,
    /// A durability checkpoint on the session tenant's engine.
    Checkpoint,
    /// An ordinary SciSPARQL statement.
    Query(String),
}

impl Statement {
    pub fn parse(text: String) -> Statement {
        let trimmed = text.trim();
        let is = |keyword: &str| trimmed.eq_ignore_ascii_case(keyword);
        if is("SHUTDOWN") {
            Statement::Shutdown
        } else if is("TENANT") {
            Statement::Tenant
        } else if trimmed
            .get(..4)
            .is_some_and(|p| p.eq_ignore_ascii_case("USE "))
        {
            Statement::Use(trimmed[4..].trim().to_string())
        } else if is("STATS") {
            Statement::Exec(FramedExec::Stats)
        } else if is("METRICS") {
            Statement::Exec(FramedExec::Metrics)
        } else if is("CHECKPOINT") {
            Statement::Exec(FramedExec::Checkpoint)
        } else {
            Statement::Exec(FramedExec::Query(text))
        }
    }
}

impl FramedExec {
    /// Fair-share cost in bytes, as [`super::router::Exec::cost`].
    pub fn cost(&self) -> u64 {
        match self {
            FramedExec::Query(statement) => statement.len() as u64,
            _ => 1,
        }
    }

    /// Run against the admitted tenant; returns the reply's status and
    /// payload. Called on a worker thread, inside its unwind boundary.
    pub fn run(&self, tenant: &Tenant, registry: &TenantRegistry) -> (u8, String) {
        // Observed on drop, so a statement that panics is timed too.
        let _timed = Span::start(&ssdm_obs::recorder().histogram("ssdm_framed_request_seconds"));
        match self {
            FramedExec::Stats => (0, registry.stats_text(tenant)),
            FramedExec::Metrics => (0, registry.metrics_prometheus()),
            FramedExec::Checkpoint => {
                let mut engine = tenant
                    .engine()
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                match engine.checkpoint() {
                    Ok(()) => (0, "checkpoint complete".to_string()),
                    Err(e) => (1, e.to_string()),
                }
            }
            // The lock is held per statement, rendering included: a
            // SELECT's cells are read from the dictionary in place.
            FramedExec::Query(statement) => {
                match router::run(statement, None, tenant.engine(), render) {
                    Ok(payload) => (0, payload),
                    Err(e) => (1, e.to_string()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_response_becomes_status1_frame() {
        // A tiny max_frame forces the cap on an ordinary payload.
        let wire = encode(0, "a perfectly ordinary response", 8);
        assert_eq!(wire[0], 1, "status flips to error");
        let len = u32::from_le_bytes(wire[1..5].try_into().unwrap());
        assert!(len <= 8, "capped frame respects max_frame, got {len}");
        assert_eq!(wire.len(), 5 + len as usize, "framing stays in sync");
    }

    #[test]
    fn small_responses_pass_untouched() {
        let wire = encode(0, "ok", MAX_FRAME);
        assert_eq!(wire, [&[0u8][..], &2u32.to_le_bytes(), b"ok"].concat());
    }

    #[test]
    fn wire_statements_are_recognized_case_insensitively() {
        assert_eq!(Statement::parse(" shutdown\n".into()), Statement::Shutdown);
        assert_eq!(Statement::parse("Tenant".into()), Statement::Tenant);
        assert_eq!(
            Statement::parse("use  alice ".into()),
            Statement::Use("alice".into())
        );
        assert_eq!(
            Statement::parse("checkpoint".into()),
            Statement::Exec(FramedExec::Checkpoint)
        );
        // A multi-byte character straddling byte 4 is a query, not a
        // slicing panic.
        assert_eq!(
            Statement::parse("USEé".into()),
            Statement::Exec(FramedExec::Query("USEé".into()))
        );
    }
}
