//! Statements that once stopped the server, over a real socket against
//! the real event loop: the router parses each query on the reactor
//! thread, so a parse that never ends froze every connection, and one
//! nested past the stack aborted the process. Both now answer 400, and
//! the server keeps serving other connections; a join of thousands of
//! triple patterns answers too.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ssdm::http::{HttpConfig, HttpServer};
use ssdm::tenant::{TenantQuotas, TenantRegistry};
use ssdm::{Backend, Ssdm};

/// Send one request on a new connection and return the response's
/// status line, failing after five seconds without one.
fn status(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            other => panic!("no response to {request:.60}: {other:?}"),
        }
    }
    String::from_utf8(head).unwrap().trim_end().to_string()
}

fn post_query(query: &str) -> String {
    format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{query}",
        query.len()
    )
}

#[test]
fn unterminated_and_deeply_nested_queries_answer_400_and_the_server_lives_on() {
    let server = HttpServer::bind("127.0.0.1:0", HttpConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let mut ssdm = Ssdm::open(Backend::Memory);
    ssdm.load_turtle("<http://s> <http://p> <http://o> .")
        .unwrap();
    let registry = Arc::new(TenantRegistry::new(ssdm, TenantQuotas::default()));
    let join = std::thread::spawn(move || server.serve_registry(registry));

    let healthz = "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    let nested = format!(
        "ASK {{ FILTER({}1{}) }}",
        "(".repeat(4000),
        ")".repeat(4000)
    );
    // A group's FILTERs and OPTIONALs each wrap its plan once more.
    let filters = format!("ASK {{ ?s ?p ?o {}}}", "FILTER(?o != 1) ".repeat(3000));
    let optionals = format!(
        "ASK {{ ?s ?p ?o {}}}",
        "OPTIONAL { ?s ?p ?o } ".repeat(3000)
    );
    for request in [
        "GET /query?query=ASK%20%7B HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".to_string(),
        post_query("SELECT * WHERE { UNION }"),
        post_query(&nested),
        post_query(&filters),
        post_query(&optionals),
    ] {
        assert_eq!(status(addr, &request), "HTTP/1.1 400 Bad Request");
        assert_eq!(status(addr, healthz), "HTTP/1.1 200 OK");
    }
    // A group's triple patterns make one join, whose stack depth is
    // bounded however wide it is; past `MAX_PATTERNS` it is refused.
    let wide = |k| format!("ASK {{ {}}}", "?s ?p ?o . ".repeat(k));
    for (k, answer) in [
        (3_000, "HTTP/1.1 200 OK"),
        (100_000, "HTTP/1.1 400 Bad Request"),
    ] {
        assert_eq!(status(addr, &post_query(&wide(k))), answer, "{k} patterns");
        assert_eq!(status(addr, healthz), "HTTP/1.1 200 OK");
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}
