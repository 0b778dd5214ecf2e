//! Both wire decoders under split and adversarial input — the
//! crash-point sweep of `durability_crash.rs`, applied to what a peer
//! sends instead of where a disk write tears.
//!
//! The event loop re-runs a decoder over a connection's receive buffer
//! each time bytes arrive, so what it decodes must not depend on where
//! TCP happened to cut the stream. For every request stream below, fed
//! split at *every* byte offset (and one byte at a time), the sequence
//! of parsed requests and typed errors equals the one decoded from the
//! whole stream. Seeded garbage never panics a decoder, ends in a typed
//! error or "incomplete", and an announced length is checked against
//! its cap before anything is sized by it (a counting allocator watches
//! the decoding thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ssdm::http::frame::{self, Decoded};
use ssdm::http::parser::{parse_request, Limits, Parsed};

/// The largest single allocation this thread has asked for.
struct Watch;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers to `System` for every operation; the thread-local is
// const-initialized and has no destructor, so touching it allocates
// nothing and is valid for the thread's whole life.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static WATCH: Watch = Watch;

/// The largest allocation `f` makes on this thread.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(0));
    f();
    LARGEST.with(|l| l.get())
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Feed `pieces` to a connection-shaped receive buffer, running `step`
/// over it after each: `step` returns what it decoded off the front and
/// how many bytes that consumed, or `None` for "wait for more". An
/// outcome that consumes nothing is terminal (the connection closes).
fn decode_stream<'a>(
    pieces: impl IntoIterator<Item = &'a [u8]>,
    step: impl Fn(&[u8]) -> Option<(String, usize)>,
) -> Vec<String> {
    let mut buf = Vec::new();
    let mut outcomes = Vec::new();
    'fed: for piece in pieces {
        buf.extend_from_slice(piece);
        while let Some((outcome, consumed)) = step(&buf) {
            outcomes.push(outcome);
            if consumed == 0 {
                break 'fed;
            }
            buf.drain(..consumed);
        }
    }
    outcomes
}

/// `step` gives the same outcomes for `stream` whole, cut in two at
/// every offset, and dribbled in byte by byte.
fn assert_split_invariant(
    what: &str,
    stream: &[u8],
    step: impl Fn(&[u8]) -> Option<(String, usize)>,
) -> Vec<String> {
    let whole = decode_stream([stream], &step);
    for cut in 0..=stream.len() {
        let (a, b) = stream.split_at(cut);
        assert_eq!(
            decode_stream([a, b], &step),
            whole,
            "{what}: cut at byte {cut} of {}",
            stream.len()
        );
    }
    assert_eq!(
        decode_stream(stream.chunks(1), &step),
        whole,
        "{what}: one byte at a time"
    );
    whole
}

fn http_step(limits: Limits) -> impl Fn(&[u8]) -> Option<(String, usize)> {
    move |buf| match parse_request(buf, &limits) {
        Parsed::Incomplete { need, .. } => {
            // What the connection stretches its receive cap to: past
            // what it holds, by no more than a body (or a chunk and its
            // CRLF) within the limit.
            assert!(buf.len() < need && need - buf.len() <= limits.max_body_bytes + 2);
            None
        }
        Parsed::Complete(request, consumed) => {
            assert!(0 < consumed && consumed <= buf.len());
            Some((format!("{request:?}"), consumed))
        }
        Parsed::Error(e) => Some((format!("{e:?}"), 0)),
    }
}

const GET: &str =
    "GET /tenants/alice/query?query=ASK%20%7B%7D&x=a+b HTTP/1.1\r\nHost: t\r\nAccept: text/csv\r\n\r\n";
const POST: &str = "POST /query HTTP/1.1\r\nContent-Type: application/sparql-query\r\nContent-Length: 7\r\n\r\nASK { }";
const FORM: &str = "POST /update HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded; charset=UTF-8\r\nContent-Length: 40\r\nConnection: close\r\n\r\nupdate=INSERT+DATA+%7B+%3Ca%3E+%3Cb%3E+1";
const CHUNKED: &str = "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Type: application/sparql-query\r\n\r\n4;ext=1\r\nASK \r\n3\r\n{ }\r\n0\r\nTrailer: x\r\n\r\n";
const EXPECT: &str = "POST /query HTTP/1.1\r\nExpect: 100-continue\r\nContent-Type: application/sparql-query\r\nContent-Length: 6\r\n\r\nASK {}";

/// An update statement of `len` bytes.
fn update_of(len: usize) -> String {
    let statement = "INSERT DATA { <a> <b> 1 } #";
    format!("{statement}{}", "x".repeat(len - statement.len()))
}

/// An update whose body is `len` bytes, announced by `Content-Length`.
fn sized_body(len: usize) -> String {
    let body = update_of(len);
    format!(
        "POST /update HTTP/1.1\r\nContent-Type: application/sparql-update\r\nContent-Length: {len}\r\n\r\n{body}"
    )
}

/// The same body in chunks of 1000 bytes and a remainder.
fn chunked_body(len: usize) -> String {
    let body = update_of(len);
    let mut wire = "POST /update HTTP/1.1\r\nContent-Type: application/sparql-update\r\nTransfer-Encoding: chunked\r\n\r\n".to_string();
    for chunk in body.as_bytes().chunks(1000) {
        wire += &format!(
            "{:x}\r\n{}\r\n",
            chunk.len(),
            std::str::from_utf8(chunk).unwrap()
        );
    }
    wire + "0\r\n\r\n"
}

#[test]
fn http_requests_parse_the_same_wherever_the_stream_is_cut() {
    let step = http_step(Limits::default());
    for (what, stream, requests) in [
        ("GET", GET.to_string(), 1),
        ("POST", POST.to_string(), 1),
        ("form", FORM.to_string(), 1),
        ("chunked", CHUNKED.to_string(), 1),
        ("expect", EXPECT.to_string(), 1),
        ("GET+POST pipelined", format!("{GET}{POST}"), 2),
        ("chunked+GET pipelined", format!("{CHUNKED}{GET}"), 2),
        ("sized body", sized_body(3000), 1),
        ("chunked body", chunked_body(3000), 1),
        ("HTTP/1.0", "GET /healthz HTTP/1.0\r\n\r\n".to_string(), 1),
    ] {
        let outcomes = assert_split_invariant(what, stream.as_bytes(), &step);
        assert_eq!(outcomes.len(), requests, "{what}: {outcomes:?}");
        assert!(
            outcomes.iter().all(|o| o.starts_with("Request {")),
            "{what}: {outcomes:?}"
        );
    }
}

#[test]
fn http_errors_are_the_same_typed_error_wherever_the_stream_is_cut() {
    let roomy = Limits::default();
    let tight = Limits {
        max_head_bytes: 64,
        max_body_bytes: 8,
        max_headers: 2,
    };
    let case = |what: &str, stream: &str, limits: Limits, status: u16| {
        let outcomes = assert_split_invariant(what, stream.as_bytes(), http_step(limits));
        let last = outcomes.last().expect(what);
        assert!(
            last.starts_with(&format!("ParseError {{ status: {status},")),
            "{what}: {outcomes:?}"
        );
    };
    let chunked = "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
    case("request line", "garbage\r\n\r\n", roomy, 400);
    case("version", "GET / HTTP/2.0\r\n\r\n", roomy, 505);
    case(
        "header field",
        "GET / HTTP/1.1\r\nnocolon\r\n\r\n",
        roomy,
        400,
    );
    case("path escape", "GET /%zz HTTP/1.1\r\n\r\n", roomy, 400);
    let stream = "POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n";
    case("content-length", stream, roomy, 400);
    case("chunk size", &format!("{chunked}zz\r\n"), roomy, 400);
    case("chunk end", &format!("{chunked}1\r\nabc"), roomy, 400);
    let stream = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(80));
    case("head cap", &stream, tight, 431);
    let stream = "GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
    case("header count", stream, tight, 431);
    let stream = "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
    case("body cap", stream, tight, 413);
    let stream = format!("{chunked}5\r\nabcde\r\n5\r\n");
    case("chunked body cap", &stream, tight, 413);
    // 17 MiB announced against the 16 MiB default, either way: refused
    // on the announcement, whatever follows.
    let stream = format!(
        "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\nbody",
        17 << 20
    );
    case("17 MiB announced", &stream, roomy, 413);
    let stream = format!("{chunked}{:x}\r\nbody", 17 << 20);
    case("17 MiB chunk announced", &stream, roomy, 413);
    // A chunk size that wraps `usize` when added to the body so far.
    let stream = format!("{chunked}1\r\na\r\nffffffffffffffff\r\n");
    case("chunk size overflow", &stream, roomy, 413);
    // A good request first: it is parsed, then the error behind it.
    case(
        "GET then garbage",
        &format!("{GET}garbage\r\n\r\n"),
        roomy,
        400,
    );
}

#[test]
fn expect_continue_is_announced_exactly_while_the_body_is_awaited() {
    let head_len = EXPECT.find("\r\n\r\n").unwrap() + 4;
    for cut in 0..EXPECT.len() {
        match parse_request(&EXPECT.as_bytes()[..cut], &Limits::default()) {
            Parsed::Incomplete {
                expects_continue, ..
            } => {
                assert_eq!(expects_continue, cut >= head_len, "prefix of {cut} bytes")
            }
            other => panic!("prefix of {cut} bytes parsed as {other:?}"),
        }
    }
}

/// `need` is what the receive cap is stretched to, so it has to be
/// both safe and enough: nothing completes in fewer bytes, and with
/// `need` bytes in hand the parser gets further — it completes, or it
/// asks for more than before.
#[test]
fn the_length_the_parser_waits_for_is_reached_and_then_suffices() {
    let limits = Limits::default();
    for stream in [
        POST.to_string(),
        EXPECT.to_string(),
        CHUNKED.to_string(),
        sized_body(3000),
        chunked_body(3000),
    ] {
        let stream = stream.as_bytes();
        for cut in 0..stream.len() {
            let Parsed::Incomplete { need, .. } = parse_request(&stream[..cut], &limits) else {
                panic!("prefix of {cut} bytes is a whole request");
            };
            assert!(cut < need && need <= stream.len(), "cut {cut}: need {need}");
            let parsed = parse_request(&stream[..need - 1], &limits);
            assert!(
                matches!(parsed, Parsed::Incomplete { need: same, .. } if same == need),
                "cut {cut}: one byte short of need {need} gave {parsed:?}"
            );
            match parse_request(&stream[..need], &limits) {
                Parsed::Incomplete { need: next, .. } => assert!(next > need, "cut {cut}"),
                Parsed::Complete(_, consumed) => assert_eq!(consumed, stream.len()),
                Parsed::Error(e) => panic!("cut {cut}: {e:?}"),
            }
        }
    }
}

const MAX_FRAME: u32 = 64;

fn frame_step(buf: &[u8]) -> Option<(String, usize)> {
    match frame::decode(buf, MAX_FRAME) {
        Decoded::Incomplete { need } => {
            assert!(buf.len() < need && need <= 4 + MAX_FRAME as usize);
            None
        }
        Decoded::Frame(payload, consumed) => {
            assert_eq!(consumed, 4 + payload.len());
            let text = std::str::from_utf8(payload).map_err(|_| "not UTF-8");
            Some((format!("{text:?}"), consumed))
        }
        Decoded::TooLarge(len) => Some((format!("too large: {len}"), 0)),
    }
}

fn frame_of(payload: &[u8]) -> Vec<u8> {
    [&(payload.len() as u32).to_le_bytes()[..], payload].concat()
}

#[test]
fn frames_decode_the_same_wherever_the_stream_is_cut() {
    let stream = [
        frame_of(b""),
        frame_of(b"x"),
        frame_of(&[b'q'; MAX_FRAME as usize]),
        frame_of(&[0xFF, 0xFE, 0xFD]),
        frame_of("USE é".as_bytes()),
        frame_of(&[b'r'; MAX_FRAME as usize + 1]),
        frame_of(b"never decoded: the stream is out of sync"),
    ]
    .concat();
    let outcomes = assert_split_invariant("frames", &stream, frame_step);
    assert_eq!(
        outcomes,
        [
            "Ok(\"\")".to_string(),
            "Ok(\"x\")".to_string(),
            format!("Ok({:?})", "q".repeat(MAX_FRAME as usize)),
            "Err(\"not UTF-8\")".to_string(),
            "Ok(\"USE é\")".to_string(),
            format!("too large: {}", MAX_FRAME + 1),
        ]
    );
}

/// Random bytes salted with the tokens each grammar turns on, so the
/// decoders get past their first check often enough to matter.
fn garbage(rng: &mut u64, tokens: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..splitmix64(rng) % 24 {
        let pick = splitmix64(rng);
        if pick.is_multiple_of(3) {
            out.extend((0..pick >> 8 & 15).map(|i| (pick >> (16 + i * 3)) as u8));
        } else {
            out.extend_from_slice(tokens[(pick >> 8) as usize % tokens.len()]);
        }
    }
    out
}

#[test]
fn garbage_never_panics_and_ends_typed_or_incomplete() {
    const HTTP_TOKENS: &[&[u8]] = &[
        b"GET ",
        b"POST ",
        b"/query?query=",
        b" HTTP/1.1",
        b"\r\n",
        b"\r\n\r\n",
        b"%7B",
        b"%",
        b"Content-Length: ",
        b"Transfer-Encoding: chunked",
        b"Expect: 100-continue",
        b"7",
        b"0",
        b"ffffffffffffffff",
        b"18446744073709551615",
        b":",
        b" ",
        b"a=b&c",
        b"\n",
        b"\r",
    ];
    const FRAME_TOKENS: &[&[u8]] = &[
        &[0, 0, 0, 0],
        &[1, 0, 0, 0],
        &[64, 0, 0, 0],
        &[65, 0, 0, 0],
        &[0xFF, 0xFF, 0xFF, 0xFF],
        b"SHUTDOWN",
        b"USE ",
        &[0xFF],
    ];
    let http = http_step(Limits::default());
    for seed in [17, 2026, 0x5EED, 0xC0FFEE] {
        let mut rng = seed;
        for _ in 0..1000 {
            let stream = garbage(&mut rng, HTTP_TOKENS);
            assert_split_invariant(&format!("http garbage, seed {seed}"), &stream, &http);
            let stream = garbage(&mut rng, FRAME_TOKENS);
            assert_split_invariant(&format!("frame garbage, seed {seed}"), &stream, frame_step);
        }
    }
}

#[test]
fn an_announced_length_is_capped_before_anything_is_sized_by_it() {
    let limits = Limits::default();
    // Within the cap: the decoders wait for the bytes; the buffer grows
    // as they arrive, not on the peer's say-so.
    let claim = limits.max_body_bytes;
    let head = format!("POST /query HTTP/1.1\r\nContent-Length: {claim}\r\n\r\n");
    let chunked =
        format!("POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{claim:x}\r\n");
    let frame_head = (64u32 << 20).to_le_bytes();
    let largest = largest_allocation(|| {
        for request in [&head, &chunked] {
            let parsed = parse_request(request.as_bytes(), &limits);
            assert!(matches!(parsed, Parsed::Incomplete { .. }), "{parsed:?}");
        }
        assert_eq!(
            frame::decode(&frame_head, 64 << 20),
            Decoded::Incomplete {
                need: 4 + (64 << 20)
            }
        );
    });
    assert!(
        largest < 4096,
        "a {largest}-byte allocation for an unsent body"
    );

    // One over: a typed error, at once.
    let over = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        claim + 1
    );
    assert!(matches!(
        parse_request(over.as_bytes(), &limits),
        Parsed::Error(e) if e.status == 413
    ));
    assert_eq!(
        frame::decode(&((64u32 << 20) + 1).to_le_bytes(), 64 << 20),
        Decoded::TooLarge((64 << 20) + 1)
    );
}
