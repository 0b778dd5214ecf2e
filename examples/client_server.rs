//! Client–server deployment (thesis §5.1 / ch. 7 transport).
//!
//! Runs an SSDM server over the relational back-end on one thread — its
//! event loop; statements execute on the worker pool it starts — then
//! acts as a remote client: loads data with updates, defines a function,
//! and runs array queries over the wire — the same framed protocol the
//! `ssdm-server` binary speaks and a Matlab-style client would use.
//!
//! Run with: `cargo run --example client_server`

use ssdm::server::{Client, Server};
use ssdm::{Backend, Ssdm};

fn main() {
    // --- server side --------------------------------------------------
    // `serve` returns once a client sends SHUTDOWN and the drain is done.
    let mut db = Ssdm::open(Backend::Relational);
    db.set_externalize_threshold(1000, 8192);
    let server = Server::bind("127.0.0.1:0", db).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    println!("server listening on {addr}");

    // --- client side ----------------------------------------------------
    let mut client = Client::connect(addr).expect("connect");

    println!("\ninserting data over the wire...");
    let r = client
        .query(
            r#"PREFIX ex: <http://lab#>
               INSERT DATA {
                 ex:sensor1 ex:site "roof" ; ex:readings (18 19 22 25 24 21) .
                 ex:sensor2 ex:site "cellar" ; ex:readings (11 11 12 12 11 11) .
               }"#,
        )
        .expect("insert");
    println!("  {}", r.trim());

    println!("\ndefining a server-side function...");
    client
        .query(
            "DEFINE FUNCTION spread(?a) AS SELECT (array_max(?a) - array_min(?a) AS ?r) WHERE { }",
        )
        .expect("define");

    println!("\nquerying (computation happens on the server):");
    let (vars, rows) = client
        .query_rows(
            r#"PREFIX ex: <http://lab#>
               SELECT ?site (array_avg(?r) AS ?mean) (spread(?r) AS ?spread)
               WHERE { ?s ex:site ?site ; ex:readings ?r } ORDER BY ?site"#,
        )
        .expect("select");
    println!("  {}", vars.join("\t"));
    for row in rows {
        println!("  {}", row.join("\t"));
    }

    println!("\nerrors stay on the connection:");
    match client.query("SELECT nonsense FROM nowhere") {
        Err(e) => println!("  server said: {e}"),
        Ok(_) => unreachable!(),
    }

    let (_, rows) = client
        .query_rows(r#"PREFIX ex: <http://lab#> SELECT ?s WHERE { ?s ex:site ?x }"#)
        .expect("still alive");
    println!(
        "  connection still serves queries ({} sensors found)",
        rows.len()
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("join");
    println!("\nserver shut down cleanly");
}
