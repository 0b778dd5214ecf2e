//! SPARQL 1.1 Protocol routing and request execution.
//!
//! Routing splits in two phases so the event loop never blocks on the
//! engine: [`route`] classifies a parsed request without touching the
//! database (immediate responses for protocol errors, health checks,
//! and method/path mismatches; an [`Exec`] job otherwise), and
//! [`execute`] runs an `Exec` against the resolved tenant's engine on
//! a worker thread, inside that worker's unwind boundary.
//!
//! Tenant routing: `/query`, `/update`, and `/stats` serve the default
//! tenant; `/tenants/<id>/query|update|stats` serve the named one.
//! `/metrics` and `/healthz` are server-wide.
//!
//! Protocol conformance notes (each was a silent-wrong-answer bug):
//! the dataset-scope parameters (`default-graph-uri`, `named-graph-uri`,
//! `using-graph-uri`, `using-named-graph-uri`) are *refused* with a 400
//! rather than silently ignored — the spec requires honoring or
//! refusing them, and this service always queries its own dataset;
//! duplicate `query=`/`update=` parameters (the spec requires exactly
//! one) are a 400 instead of first-wins; and `Content-Type` matches by
//! media type only, so parameterized headers like
//! `application/x-www-form-urlencoded; charset=UTF-8` are accepted.

use std::sync::{Mutex, PoisonError};

use scisparql::parser::Prepared;
use scisparql::{Answer, Dataset, QueryError, QueryResult};
use ssdm_obs::Span;

use crate::tenant::TenantRegistry;
use crate::Ssdm;

use super::negotiate::{negotiate, ResultFormat};
use super::parser::{Method, Request};
use super::results;

/// A complete response, format-agnostic until encoded.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Extra headers (e.g. `Allow` on 405).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Suppress the body (HEAD requests keep the headers).
    pub head_only: bool,
}

impl Response {
    pub fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type,
            body,
            extra_headers: Vec::new(),
            head_only: false,
        }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Response {
        let mut body = body.into();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Response::new(status, "text/plain; charset=utf-8", body.into_bytes())
    }

    fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name, value.into()));
        self
    }

    pub fn status_reason(status: u16) -> &'static str {
        match status {
            100 => "Continue",
            200 => "OK",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            406 => "Not Acceptable",
            408 => "Request Timeout",
            413 => "Content Too Large",
            414 => "URI Too Long",
            415 => "Unsupported Media Type",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "Unknown",
        }
    }

    /// Encode as HTTP/1.1 wire bytes.
    pub fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            Response::status_reason(self.status),
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        for (name, value) in &self.extra_headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(if keep_alive {
            b"Connection: keep-alive\r\n\r\n"
        } else {
            b"Connection: close\r\n\r\n"
        });
        if !self.head_only {
            out.extend_from_slice(&self.body);
        }
        out
    }
}

/// What a request needs from the engine. `tenant: None` means the
/// default tenant (the bare `/query`-family paths). `parsed` is the
/// statement as the router parsed it to check its endpoint, which the
/// worker hands to the engine instead of parsing `statement` again;
/// `None` when it did not parse, and the engine reports why.
#[derive(Debug, Clone)]
pub enum Exec {
    /// A read statement from `/query`, answered in `format`.
    Query {
        tenant: Option<String>,
        statement: String,
        parsed: Option<Box<Prepared>>,
        format: ResultFormat,
    },
    /// An update statement from `/update`.
    Update {
        tenant: Option<String>,
        statement: String,
        parsed: Option<Box<Prepared>>,
    },
    /// The Prometheus dump across every tenant.
    Metrics,
    /// The plain-text statistics report for one tenant.
    Stats { tenant: Option<String> },
}

impl Exec {
    /// Which tenant's queue and quotas this job charges against.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Exec::Query { tenant, .. } | Exec::Update { tenant, .. } | Exec::Stats { tenant } => {
                tenant.as_deref()
            }
            Exec::Metrics => None,
        }
    }

    /// Fair-share cost in bytes; deficit round robin weighs queued
    /// work by statement size so a hog's megabyte bodies do not buy it
    /// extra turns.
    pub fn cost(&self) -> u64 {
        match self {
            Exec::Query { statement, .. } | Exec::Update { statement, .. } => {
                statement.len() as u64
            }
            Exec::Metrics | Exec::Stats { .. } => 1,
        }
    }
}

/// The routing decision for one request.
pub enum Routed {
    /// Answer directly from the event loop, no engine involved.
    Immediate(Response),
    /// Dispatch to a worker. `head_only` trims the body on the way out.
    Dispatch { exec: Exec, head_only: bool },
}

fn counter(name: &'static str) {
    ssdm_obs::recorder().counter(name).inc();
}

/// Classify a parsed request per the SPARQL 1.1 Protocol.
pub fn route(req: &Request) -> Routed {
    let head_only = req.method == Method::Head;
    if let Some(rest) = req.path.strip_prefix("/tenants/") {
        let Some((name, endpoint)) = rest.split_once('/') else {
            counter("ssdm_http_not_found_total");
            return Routed::Immediate(Response::text(
                404,
                "tenant paths are /tenants/<id>/query, /tenants/<id>/update, /tenants/<id>/stats",
            ));
        };
        if name.is_empty() {
            counter("ssdm_http_not_found_total");
            return Routed::Immediate(Response::text(404, "empty tenant id"));
        }
        let tenant = Some(name.to_string());
        return match endpoint {
            "query" => route_query(req, tenant, head_only),
            "update" => route_update(req, tenant),
            "stats" => match req.method {
                Method::Get | Method::Head => {
                    counter("ssdm_http_stats_requests_total");
                    Routed::Dispatch {
                        exec: Exec::Stats { tenant },
                        head_only,
                    }
                }
                _ => method_not_allowed("GET, HEAD"),
            },
            _ => {
                counter("ssdm_http_not_found_total");
                Routed::Immediate(Response::text(404, "no such tenant endpoint"))
            }
        };
    }
    match req.path.as_str() {
        "/query" => route_query(req, None, head_only),
        "/update" => route_update(req, None),
        "/metrics" => match req.method {
            Method::Get | Method::Head => {
                counter("ssdm_http_metrics_requests_total");
                Routed::Dispatch {
                    exec: Exec::Metrics,
                    head_only,
                }
            }
            _ => method_not_allowed("GET, HEAD"),
        },
        "/stats" => match req.method {
            Method::Get | Method::Head => {
                counter("ssdm_http_stats_requests_total");
                Routed::Dispatch {
                    exec: Exec::Stats { tenant: None },
                    head_only,
                }
            }
            _ => method_not_allowed("GET, HEAD"),
        },
        "/healthz" => match req.method {
            Method::Get | Method::Head => {
                let mut resp = Response::text(200, "ok");
                resp.head_only = head_only;
                Routed::Immediate(resp)
            }
            _ => method_not_allowed("GET, HEAD"),
        },
        _ => {
            counter("ssdm_http_not_found_total");
            Routed::Immediate(Response::text(404, "no such endpoint"))
        }
    }
}

fn method_not_allowed(allow: &'static str) -> Routed {
    Routed::Immediate(Response::text(405, "method not allowed").with_header("Allow", allow))
}

/// Dataset-scope parameters each endpoint must honor or refuse; this
/// service always operates on its own dataset, so it refuses them.
const QUERY_DATASET_PARAMS: &[&str] = &["default-graph-uri", "named-graph-uri"];
const UPDATE_DATASET_PARAMS: &[&str] = &["using-graph-uri", "using-named-graph-uri"];

fn refuse_dataset_params(pairs: &[(String, String)], forbidden: &[&str]) -> Option<Routed> {
    for (k, _) in pairs {
        if forbidden.iter().any(|f| f == k) {
            return Some(bad_request(&format!(
                "unsupported protocol parameter '{k}': this service always operates on its own \
                 dataset and refuses dataset-scope parameters rather than silently ignoring them"
            )));
        }
    }
    None
}

/// Enforce the protocol's exactly-one rule for the statement
/// parameter across every place it could appear.
fn exactly_one<'a>(
    pairs: impl Iterator<Item = &'a (String, String)>,
    field: &str,
) -> Result<Option<String>, Routed> {
    let mut found = None;
    for (k, v) in pairs {
        if k == field {
            if found.is_some() {
                return Err(bad_request(&format!(
                    "duplicate '{field}' parameter: the protocol requires exactly one"
                )));
            }
            found = Some(v.clone());
        }
    }
    Ok(found)
}

/// `/query`: GET with a `query=` parameter, or POST with either an
/// urlencoded form carrying `query=` or a raw
/// `application/sparql-query` body.
fn route_query(req: &Request, tenant: Option<String>, head_only: bool) -> Routed {
    if let Some(resp) = refuse_dataset_params(&req.query_pairs, QUERY_DATASET_PARAMS) {
        return resp;
    }
    let statement = match req.method {
        Method::Get | Method::Head => match exactly_one(req.query_pairs.iter(), "query") {
            Err(r) => return r,
            Ok(Some(q)) => q,
            Ok(None) => {
                return bad_request("missing required 'query' parameter");
            }
        },
        Method::Post => {
            match extract_post_statement(
                req,
                "query",
                "application/sparql-query",
                QUERY_DATASET_PARAMS,
            ) {
                Ok(s) => s,
                Err(r) => return r,
            }
        }
        Method::Other => return method_not_allowed("GET, HEAD, POST"),
    };
    let Some(format) = negotiate(req.header("accept")) else {
        counter("ssdm_http_not_acceptable_total");
        return Routed::Immediate(Response::text(
            406,
            "not acceptable: supported result types are application/sparql-results+json, \
             application/sparql-results+xml, text/csv, text/tab-separated-values",
        ));
    };
    // The protocol forbids updates through the query endpoint. The
    // router and the engine share one parser: a statement that fails
    // here travels as text and the engine reports the same error, in
    // the same place as every other failed statement.
    let parsed = Prepared::parse(&statement).ok().map(Box::new);
    if parsed.as_ref().is_some_and(|p| p.stmt.is_mutation()) {
        return bad_request("update statements must use the /update endpoint");
    }
    counter("ssdm_http_query_requests_total");
    Routed::Dispatch {
        exec: Exec::Query {
            tenant,
            statement,
            parsed,
            format,
        },
        head_only,
    }
}

/// `/update`: POST only, urlencoded form carrying `update=` or a raw
/// `application/sparql-update` body.
fn route_update(req: &Request, tenant: Option<String>) -> Routed {
    if req.method != Method::Post {
        return method_not_allowed("POST");
    }
    if let Some(resp) = refuse_dataset_params(&req.query_pairs, UPDATE_DATASET_PARAMS) {
        return resp;
    }
    let statement = match extract_post_statement(
        req,
        "update",
        "application/sparql-update",
        UPDATE_DATASET_PARAMS,
    ) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let parsed = Prepared::parse(&statement).ok().map(Box::new);
    if parsed.as_ref().is_some_and(|p| !p.stmt.is_mutation()) {
        return bad_request("read statements must use the /query endpoint");
    }
    counter("ssdm_http_update_requests_total");
    Routed::Dispatch {
        exec: Exec::Update {
            tenant,
            statement,
            parsed,
        },
        head_only: false,
    }
}

fn bad_request(msg: &str) -> Routed {
    counter("ssdm_http_bad_request_total");
    Routed::Immediate(Response::text(400, msg))
}

/// Pull the statement out of a POST body: either the direct media type
/// (raw statement) or a urlencoded form with the named field.
/// `Request::content_type()` strips media-type parameters, so
/// `application/x-www-form-urlencoded; charset=UTF-8` matches here.
fn extract_post_statement(
    req: &Request,
    field: &str,
    direct_type: &str,
    forbidden: &[&str],
) -> Result<String, Routed> {
    match req.content_type().as_deref() {
        Some(t) if t == direct_type => {
            // A statement parameter alongside a raw statement body
            // would be a second statement.
            if req.query_param(field).is_some() {
                return Err(bad_request(&format!(
                    "duplicate '{field}': both a raw {direct_type} body and a '{field}' \
                     parameter were supplied; the protocol requires exactly one"
                )));
            }
            match String::from_utf8(req.body.clone()) {
                Ok(s) => Ok(s),
                Err(_) => Err(bad_request("statement body is not UTF-8")),
            }
        }
        Some("application/x-www-form-urlencoded") | None => {
            let Some(body) = std::str::from_utf8(&req.body).ok() else {
                return Err(bad_request("form body is not UTF-8"));
            };
            let Some(pairs) = super::parser::parse_urlencoded(body) else {
                return Err(bad_request("malformed form body"));
            };
            if let Some(r) = refuse_dataset_params(&pairs, forbidden) {
                return Err(r);
            }
            match exactly_one(req.query_pairs.iter().chain(pairs.iter()), field) {
                Err(r) => Err(r),
                Ok(Some(v)) => Ok(v),
                Ok(None) => Err(bad_request(&format!(
                    "missing required '{field}' form field"
                ))),
            }
        }
        Some(other) => {
            counter("ssdm_http_unsupported_media_total");
            Err(Routed::Immediate(Response::text(
                415,
                format!("unsupported media type '{other}'"),
            )))
        }
    }
}

/// Run one dispatched job against its tenant's engine. Called on a
/// worker thread, whose unwind boundary contains a panic anywhere in
/// here; the engine lock is taken per statement and a poisoned one is
/// recovered (the evaluator holds no cross-statement invariants over a
/// panic edge). Tenants are resolved again here because one may be
/// evicted between admission and execution. The parsed statement is
/// moved out of `exec` into the engine.
pub fn execute(exec: &mut Exec, registry: &TenantRegistry) -> Response {
    // Observed on drop, so a statement that panics is timed too.
    let _timed = Span::start(&ssdm_obs::recorder().histogram("ssdm_http_request_seconds"));
    match exec {
        Exec::Metrics => Response::new(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            registry.metrics_prometheus().into_bytes(),
        ),
        Exec::Stats { tenant } => match registry.resolve(tenant.as_deref()) {
            Ok(t) => Response::text(200, registry.stats_text(&t)),
            Err(why) => Response::text(why.http_status(), why.message()),
        },
        Exec::Query {
            tenant,
            statement,
            parsed,
            format,
        } => match registry.resolve(tenant.as_deref()) {
            Err(why) => Response::text(why.http_status(), why.message()),
            Ok(t) => match run(statement, parsed.take(), t.engine(), |answer, ds| {
                results::serialize_answer(answer, ds, *format)
            }) {
                Ok(body) => Response::new(200, format.content_type(), body),
                Err(e) => {
                    counter("ssdm_http_query_errors_total");
                    Response::text(400, e.to_string())
                }
            },
        },
        Exec::Update {
            tenant,
            statement,
            parsed,
        } => match registry.resolve(tenant.as_deref()) {
            Err(why) => Response::text(why.http_status(), why.message()),
            Ok(t) => match run(
                statement,
                parsed.take(),
                t.engine(),
                |answer, _| match answer {
                    // The protocol leaves the success body open; report the
                    // engine's mutation counts as plain text.
                    Answer::Result(QueryResult::Updated { inserted, deleted }) => {
                        Response::text(200, format!("inserted {inserted} deleted {deleted}"))
                    }
                    _ => Response::text(200, "ok"),
                },
            ) {
                Ok(response) => response,
                Err(e) => {
                    counter("ssdm_http_update_errors_total");
                    Response::text(400, e.to_string())
                }
            },
        },
    }
}

/// One statement under the engine lock, its answer written out by
/// `write` before the lock is released: a SELECT's cells are read from
/// the dictionary where they lie, never cloned into values. `parsed`,
/// when the router parsed `statement` already, spares the engine its
/// parse.
pub(super) fn run<T>(
    statement: &str,
    parsed: Option<Box<Prepared>>,
    engine: &Mutex<Ssdm>,
    write: impl FnOnce(&Answer, &Dataset) -> T,
) -> Result<T, QueryError> {
    let mut engine = engine.lock().unwrap_or_else(PoisonError::into_inner);
    let prepared = match parsed {
        Some(prepared) => *prepared,
        None => Prepared::parse(statement)?,
    };
    let answer = engine.query_parsed(statement, prepared)?;
    Ok(write(&answer, &engine.dataset))
}

#[cfg(test)]
mod tests {
    use super::super::parser::{parse_request, Limits, Parsed};
    use super::*;

    fn parse(raw: &[u8]) -> Request {
        match parse_request(raw, &Limits::default()) {
            Parsed::Complete(r, _) => *r,
            other => panic!("{other:?}"),
        }
    }

    fn immediate(routed: Routed) -> Response {
        match routed {
            Routed::Immediate(r) => r,
            Routed::Dispatch { .. } => panic!("expected immediate response"),
        }
    }

    fn dispatched(routed: Routed) -> Exec {
        match routed {
            Routed::Dispatch { exec, .. } => exec,
            Routed::Immediate(r) => panic!("expected dispatch, got {} {:?}", r.status, r),
        }
    }

    #[test]
    fn get_query_routes_with_negotiated_format() {
        let req = parse(
            b"GET /query?query=SELECT%20%2A%20WHERE%20%7B%7D HTTP/1.1\r\nAccept: text/csv\r\n\r\n",
        );
        match dispatched(route(&req)) {
            Exec::Query {
                tenant,
                statement,
                parsed,
                format,
            } => {
                assert_eq!(tenant, None);
                assert_eq!(statement, "SELECT * WHERE {}");
                assert!(matches!(
                    parsed.map(|p| p.stmt),
                    Some(scisparql::ast::Statement::Select(_))
                ));
                assert_eq!(format, ResultFormat::Csv);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn get_query_without_parameter_is_400() {
        let req = parse(b"GET /query HTTP/1.1\r\n\r\n");
        assert_eq!(immediate(route(&req)).status, 400);
    }

    #[test]
    fn post_query_accepts_form_and_raw_bodies() {
        let form = b"POST /query HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 31\r\n\r\nquery=ASK%20%7B%7D&other=thing1";
        let req = parse(form);
        match dispatched(route(&req)) {
            Exec::Query { statement, .. } => assert_eq!(statement, "ASK {}"),
            other => panic!("{other:?}"),
        }
        let raw = b"POST /query HTTP/1.1\r\nContent-Type: application/sparql-query\r\nContent-Length: 6\r\n\r\nASK {}";
        let req = parse(raw);
        match dispatched(route(&req)) {
            Exec::Query { statement, .. } => assert_eq!(statement, "ASK {}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn post_query_wrong_media_type_is_415() {
        let req = parse(
            b"POST /query HTTP/1.1\r\nContent-Type: text/plain\r\nContent-Length: 6\r\n\r\nASK {}",
        );
        assert_eq!(immediate(route(&req)).status, 415);
    }

    #[test]
    fn update_on_query_endpoint_is_400_and_vice_versa() {
        let q = "INSERT%20DATA%20%7B%20%3Chttp%3A%2F%2Fs%3E%20%3Chttp%3A%2F%2Fp%3E%201%20%7D";
        let req = parse(format!("GET /query?query={q} HTTP/1.1\r\n\r\n").as_bytes());
        let resp = immediate(route(&req));
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("/update"));

        let req = parse(
            b"POST /update HTTP/1.1\r\nContent-Type: application/sparql-update\r\nContent-Length: 6\r\n\r\nASK {}",
        );
        let resp = immediate(route(&req));
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("/query"));
    }

    #[test]
    fn update_requires_post() {
        let req = parse(b"GET /update?update=x HTTP/1.1\r\n\r\n");
        let resp = immediate(route(&req));
        assert_eq!(resp.status, 405);
        assert!(resp
            .extra_headers
            .iter()
            .any(|(n, v)| *n == "Allow" && v == "POST"));
    }

    #[test]
    fn unacceptable_accept_is_406() {
        let req = parse(b"GET /query?query=ASK%7B%7D HTTP/1.1\r\nAccept: image/png\r\n\r\n");
        assert_eq!(immediate(route(&req)).status, 406);
    }

    #[test]
    fn unknown_path_is_404_and_health_is_immediate() {
        let req = parse(b"GET /nope HTTP/1.1\r\n\r\n");
        assert_eq!(immediate(route(&req)).status, 404);
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n");
        let resp = immediate(route(&req));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn metrics_route_dispatches() {
        let req = parse(b"GET /metrics HTTP/1.1\r\n\r\n");
        assert!(matches!(dispatched(route(&req)), Exec::Metrics));
        let req = parse(b"POST /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(immediate(route(&req)).status, 405);
    }

    #[test]
    fn tenant_paths_route_to_the_named_tenant() {
        let req = parse(b"GET /tenants/alice/query?query=ASK%7B%7D HTTP/1.1\r\n\r\n");
        match dispatched(route(&req)) {
            Exec::Query { tenant, .. } => assert_eq!(tenant.as_deref(), Some("alice")),
            other => panic!("{other:?}"),
        }
        let body = "INSERT DATA { <http://s> <http://p> 1 }";
        let raw = format!(
            "POST /tenants/bob/update HTTP/1.1\r\nContent-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let req = parse(raw.as_bytes());
        match dispatched(route(&req)) {
            Exec::Update { tenant, .. } => assert_eq!(tenant.as_deref(), Some("bob")),
            other => panic!("{other:?}"),
        }
        let req = parse(b"GET /tenants/alice/stats HTTP/1.1\r\n\r\n");
        match dispatched(route(&req)) {
            Exec::Stats { tenant } => assert_eq!(tenant.as_deref(), Some("alice")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_tenant_paths_are_404() {
        for path in [
            "/tenants/alice",
            "/tenants//query",
            "/tenants/alice/metrics",
        ] {
            let req = parse(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes());
            assert_eq!(immediate(route(&req)).status, 404, "{path}");
        }
    }

    #[test]
    fn dataset_scope_parameters_are_refused_with_400() {
        let req =
            parse(b"GET /query?query=ASK%7B%7D&default-graph-uri=http%3A%2F%2Fg HTTP/1.1\r\n\r\n");
        let resp = immediate(route(&req));
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("default-graph-uri"));

        let body = "update=CLEAR%20ALL&using-graph-uri=http%3A%2F%2Fg";
        let raw = format!(
            "POST /update HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let resp = immediate(route(&parse(raw.as_bytes())));
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("using-graph-uri"));
    }

    #[test]
    fn duplicate_statement_parameters_are_refused_with_400() {
        // Two query= pairs on GET: first-wins would silently run one.
        let req = parse(b"GET /query?query=ASK%7B%7D&query=ASK%7B%7D HTTP/1.1\r\n\r\n");
        let resp = immediate(route(&req));
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("exactly one"));

        // Two update= fields in a form body.
        let body = "update=CLEAR%20ALL&update=CLEAR%20ALL";
        let raw = format!(
            "POST /update HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let resp = immediate(route(&parse(raw.as_bytes())));
        assert_eq!(resp.status, 400);

        // A raw body plus a query= parameter in the query string.
        let raw = "POST /query?query=ASK%7B%7D HTTP/1.1\r\nContent-Type: application/sparql-query\r\nContent-Length: 6\r\n\r\nASK {}";
        let resp = immediate(route(&parse(raw.as_bytes())));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn parameterized_content_types_match_by_media_type() {
        let body = "query=ASK%20%7B%7D";
        let raw = format!(
            "POST /query HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded; charset=UTF-8\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        match dispatched(route(&parse(raw.as_bytes()))) {
            Exec::Query { statement, .. } => assert_eq!(statement, "ASK {}"),
            other => panic!("{other:?}"),
        }

        let raw = "POST /query HTTP/1.1\r\nContent-Type: application/sparql-query;charset=utf-8\r\nContent-Length: 6\r\n\r\nASK {}";
        match dispatched(route(&parse(raw.as_bytes()))) {
            Exec::Query { statement, .. } => assert_eq!(statement, "ASK {}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn response_encoding_carries_connection_header() {
        let resp = Response::text(200, "hi");
        let wire = String::from_utf8(resp.encode(true)).unwrap();
        assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(wire.contains("Connection: keep-alive\r\n"));
        assert!(wire.ends_with("\r\n\r\nhi\n"));
        let wire = String::from_utf8(resp.encode(false)).unwrap();
        assert!(wire.contains("Connection: close\r\n"));
    }

    #[test]
    fn head_requests_suppress_the_body_but_keep_length() {
        let mut resp = Response::text(200, "payload");
        resp.head_only = true;
        let wire = String::from_utf8(resp.encode(true)).unwrap();
        assert!(wire.contains("Content-Length: 8\r\n"));
        assert!(wire.ends_with("\r\n\r\n"));
    }

    /// A routed statement carries the router's parse into the engine;
    /// one that does not parse travels as text, and the reply is the
    /// engine's own error for it.
    #[test]
    fn routed_statements_run_once_parsed_and_parse_errors_come_from_the_engine() {
        let registry = TenantRegistry::new(
            crate::Ssdm::open(crate::Backend::Memory),
            crate::tenant::TenantQuotas::default(),
        );
        let body = "INSERT DATA { <http://s> <http://p> 5 }";
        let raw = format!(
            "POST /update HTTP/1.1\r\nContent-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut update = dispatched(route(&parse(raw.as_bytes())));
        assert!(matches!(
            &update,
            Exec::Update {
                parsed: Some(_),
                ..
            }
        ));
        assert_eq!(execute(&mut update, &registry).status, 200);
        assert!(matches!(&update, Exec::Update { parsed: None, .. }));

        let req = parse(b"GET /query?query=ASK%20%7B%20%3Chttp%3A%2F%2Fs%3E%20%3Chttp%3A%2F%2Fp%3E%205%20%7D HTTP/1.1\r\n\r\n");
        let mut ask = dispatched(route(&req));
        assert!(matches!(
            &ask,
            Exec::Query {
                parsed: Some(_),
                ..
            }
        ));
        let resp = execute(&mut ask, &registry);
        assert_eq!(
            String::from_utf8(resp.body).unwrap(),
            r#"{"head":{},"boolean":true}"#
        );

        let req = parse(b"GET /query?query=SELECT%20syntax%20error HTTP/1.1\r\n\r\n");
        let mut bad = dispatched(route(&req));
        assert!(matches!(&bad, Exec::Query { parsed: None, .. }));
        let resp = execute(&mut bad, &registry);
        assert_eq!(resp.status, 400);
        let engine_error = crate::Ssdm::open(crate::Backend::Memory)
            .query("SELECT syntax error")
            .unwrap_err();
        assert_eq!(
            String::from_utf8(resp.body).unwrap(),
            format!("{engine_error}\n")
        );
    }

    #[test]
    fn execute_runs_queries_and_updates_against_an_engine() {
        let registry = TenantRegistry::new(
            crate::Ssdm::open(crate::Backend::Memory),
            crate::tenant::TenantQuotas::default(),
        );
        let mut update = Exec::Update {
            tenant: None,
            statement: "INSERT DATA { <http://s> <http://p> 41 }".into(),
            parsed: None,
        };
        let resp = execute(&mut update, &registry);
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8_lossy(&resp.body).contains("inserted 1"));

        let mut query = Exec::Query {
            tenant: None,
            statement: "SELECT ?o WHERE { <http://s> <http://p> ?o }".into(),
            parsed: None,
            format: ResultFormat::Json,
        };
        let resp = execute(&mut query, &registry);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "application/sparql-results+json");
        assert!(String::from_utf8_lossy(&resp.body).contains("\"41\""));

        let mut bad = Exec::Query {
            tenant: None,
            statement: "SELECT syntax error".into(),
            parsed: None,
            format: ResultFormat::Json,
        };
        assert_eq!(execute(&mut bad, &registry).status, 400);

        let metrics = execute(&mut Exec::Metrics, &registry);
        assert_eq!(metrics.status, 200);
        assert!(String::from_utf8_lossy(&metrics.body).contains("ssdm_"));
    }

    #[test]
    fn execute_routes_tenants_independently_and_404s_unknown_ones() {
        let registry = TenantRegistry::new(
            crate::Ssdm::open(crate::Backend::Memory),
            crate::tenant::TenantQuotas::default(),
        );
        registry
            .add(
                "alice",
                crate::Ssdm::open(crate::Backend::Memory),
                crate::tenant::TenantQuotas::default(),
            )
            .unwrap();

        let mut update = Exec::Update {
            tenant: Some("alice".into()),
            statement: "INSERT DATA { <http://s> <http://p> 7 }".into(),
            parsed: None,
        };
        assert_eq!(execute(&mut update, &registry).status, 200);

        // Alice sees her row; the default tenant does not.
        let ask = |tenant: Option<&str>| {
            let mut exec = Exec::Query {
                tenant: tenant.map(String::from),
                statement: "ASK { <http://s> <http://p> 7 }".into(),
                parsed: None,
                format: ResultFormat::Json,
            };
            String::from_utf8(execute(&mut exec, &registry).body).unwrap()
        };
        assert!(ask(Some("alice")).contains("true"));
        assert!(ask(None).contains("false"));

        let mut gone = Exec::Query {
            tenant: Some("nobody".into()),
            statement: "ASK {}".into(),
            parsed: None,
            format: ResultFormat::Json,
        };
        assert_eq!(execute(&mut gone, &registry).status, 404);
    }
}
