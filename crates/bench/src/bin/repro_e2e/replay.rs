//! The traced pass: replay a stretch of every client's request
//! sequence in-process, without sockets, calling each layer's public
//! entry point in the order the server does and recording a span around
//! each call.
//!
//! `core.execute` wraps `Ssdm::query` — what `router::execute` calls —
//! so updates reach the journal exactly as they do when served. That
//! call parses and plans inside; the stand-alone `core.parser` and
//! `core.planner` spans measure those two phases from outside, and the
//! per-layer arithmetic subtracts them again.

use std::time::Instant;

use scisparql::algebra;
use scisparql::ast::Statement;
use scisparql::{PlannerCtx, QueryResult};
use ssdm::http::parser::{self, Limits, Parsed};
use ssdm::http::results;
use ssdm::http::router::{self, Exec, Response, Routed};

use crate::gate;
use crate::trace::{Recorder, SpanRec, ROOT};
use crate::workloads::{Class, ClientPlan, Setup, TraceKit, TEMPLATES};

pub const HTTP_PARSER: &str = "http.parser";
pub const HTTP_ROUTER: &str = "http.router";
pub const HTTP_RESULTS: &str = "http.results";
pub const HTTP_ENCODE: &str = "http.encode";
pub const TENANT_ADMIT: &str = "tenant.admit";
pub const LOCK_WAIT: &str = "engine.lock_wait";
pub const LOCK_HOLD: &str = "engine.lock_hold";
pub const CORE_PARSER: &str = "core.parser";
pub const CORE_PLANNER: &str = "core.planner";
pub const CORE_EXECUTE: &str = "core.execute";

/// What the traced pass saw, summed over clients.
#[derive(Default)]
pub struct Replayed {
    pub spans: Vec<SpanRec>,
    pub requests: u64,
    pub failed: u64,
    pub body_bytes: u64,
    pub rows_out: u64,
    /// Update request indices whose effect was applied.
    pub acked_updates: Vec<u64>,
}

/// The response to one replayed request, with every value the layers
/// handed over along the way: the caller drops those after the root
/// span has closed, so freeing them is not counted as unattributed
/// request time.
struct Reply {
    status: u16,
    body: Vec<u8>,
    rows_out: u64,
    _spent: (
        Box<parser::Request>,
        Exec,
        Statement,
        Option<QueryResult>,
        Vec<u8>,
    ),
}

/// Replay requests `first..first + count` of every client, one thread
/// per client as in the served run.
pub fn replay(setup: &Setup, kit: &TraceKit, first: u64, count: u64) -> Replayed {
    kit.rec.set_enabled(true);
    let per_client: Vec<Replayed> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .plans
            .iter()
            .zip(0u64..)
            .map(|(plan, client)| {
                scope.spawn(move || {
                    kit.rec
                        .buffered(|| replay_client(setup, kit, plan, client, first, count))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    kit.rec.set_enabled(false);

    let mut out = Replayed {
        spans: kit.rec.take(),
        ..Replayed::default()
    };
    for client in per_client {
        out.requests += client.requests;
        out.failed += client.failed;
        out.body_bytes += client.body_bytes;
        out.rows_out += client.rows_out;
        out.acked_updates.extend(client.acked_updates);
    }
    out
}

fn replay_client(
    setup: &Setup,
    kit: &TraceKit,
    plan: &ClientPlan,
    client: u64,
    first: u64,
    count: u64,
) -> Replayed {
    let mut out = Replayed::default();
    for i in first..first + count {
        let request = plan.request(i);
        let req_id = client * 1_000_000_000 + i;
        let reply = kit.rec.span(ROOT, 0, req_id, |root| {
            serve_one(setup, kit, &request.wire, root, req_id)
        });
        out.requests += 1;
        let correct = reply.is_some_and(|reply| {
            out.body_bytes += reply.body.len() as u64;
            out.rows_out += reply.rows_out;
            gate::check(request.expect, reply.status, &reply.body).is_ok()
        });
        if !correct {
            out.failed += 1;
        } else if TEMPLATES[request.template].class == Class::Update {
            out.acked_updates.push(i);
        }
    }
    out
}

/// One request through every layer; `None` when a layer refused it
/// (which no generated request should cause).
fn serve_one(setup: &Setup, kit: &TraceKit, wire: &[u8], root: u64, req: u64) -> Option<Reply> {
    let rec: &Recorder = &kit.rec;
    let limits = Limits::default();
    let parsed = rec.span(HTTP_PARSER, root, req, |_| {
        parser::parse_request(wire, &limits)
    });
    let Parsed::Complete(http_request, _) = parsed else {
        return None;
    };
    let routed = rec.span(HTTP_ROUTER, root, req, |_| router::route(&http_request));
    let Routed::Dispatch { exec, .. } = routed else {
        return None;
    };
    let (statement, format) = match &exec {
        Exec::Query {
            statement, format, ..
        } => (statement, Some(*format)),
        Exec::Update { statement, .. } => (statement, None),
        Exec::Metrics | Exec::Stats { .. } => return None,
    };
    let tenant = rec
        .span(TENANT_ADMIT, root, req, |_| {
            let tenant = setup.registry.admit(exec.tenant(), Instant::now());
            if let Ok(tenant) = &tenant {
                tenant.note_admitted();
            }
            tenant
        })
        .ok()?;
    let scope = kit.scope(&tenant.name);
    let parsed_statement = rec
        .span(CORE_PARSER, root, req, |_| {
            scisparql::parser::parse(statement)
        })
        .ok()?;
    let pattern = match &parsed_statement {
        Statement::Select(q) => Some(&q.pattern),
        Statement::Ask(q) => Some(&q.pattern),
        Statement::Modify { pattern, .. } => Some(pattern),
        _ => None,
    };

    let guard = rec.span(LOCK_WAIT, root, req, |_| {
        tenant.engine().lock().expect("no replay thread panics")
    });
    let result = rec.span(LOCK_HOLD, root, req, |hold| {
        let mut db = guard;
        if let Some(pattern) = pattern {
            rec.span(CORE_PLANNER, hold, req, |_| {
                let ctx = PlannerCtx {
                    graph: db.dataset.active(),
                    config: db.dataset.planner,
                    calibration: Some(&db.dataset.calibration),
                    zones: Some(&db.dataset.arrays),
                };
                std::hint::black_box(algebra::optimize_with(algebra::translate(pattern), &ctx));
            });
        }
        rec.span(CORE_EXECUTE, hold, req, |execute| {
            if let Some(scope) = scope {
                scope.set(execute, req);
            }
            db.query(statement)
        })
    });

    let (response, rows_out, result) = match (result, format) {
        (Ok(result), Some(format)) => {
            let rows_out = match &result {
                QueryResult::Solutions { rows, .. } => rows.len() as u64,
                _ => 1,
            };
            let body = rec.span(HTTP_RESULTS, root, req, |_| {
                results::serialize(&result, format)
            });
            let response = Response::new(200, format.content_type(), body);
            (response, rows_out, Some(result))
        }
        (Ok(QueryResult::Updated { inserted, deleted }), None) => (
            Response::text(200, format!("inserted {inserted} deleted {deleted}")),
            (inserted + deleted) as u64,
            None,
        ),
        (Ok(_), None) => (Response::text(200, "ok"), 0, None),
        (Err(e), _) => (Response::text(400, e.to_string()), 0, None),
    };
    let encoded = rec.span(HTTP_ENCODE, root, req, |_| response.encode(true));
    rec.span(TENANT_ADMIT, root, req, |_| {
        tenant.note_done(response.status < 400)
    });
    Some(Reply {
        status: response.status,
        body: response.body,
        rows_out,
        _spent: (http_request, exec, parsed_statement, result, encoded),
    })
}
