//! Order statistics, a small JSON value (emitter and parser), the
//! deterministic mixer behind every seeded choice, the `/proc` readers
//! for CPU time and peak resident memory, and the CPU pin.

use std::fmt::Write as _;
use std::path::Path;

// ---------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile (`p` in `(0, 1]`) of `samples`, sorting them
/// in place. Tail percentiles (`p > 0.5`) are refused unless at least
/// [`MIN_BEYOND`] samples lie beyond the reported value: a tail that
/// thin is one sample's noise, not a percentile.
pub fn percentile(samples: &mut [f64], p: f64) -> Result<f64, TooFewSamples> {
    let n = samples.len();
    let refuse = |beyond| TooFewSamples { samples: n, beyond };
    if n == 0 {
        return Err(refuse(0));
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if p > 0.5 && beyond < MIN_BEYOND {
        return Err(refuse(beyond));
    }
    Ok(samples[rank - 1])
}

/// The median, averaging the two middle values of an even count.
/// `None` for no samples.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    })
}

// ---------------------------------------------------------------------
// Seeded choices
// ---------------------------------------------------------------------

/// SplitMix64 finalizer: a bijective mixer, so distinct inputs give
/// distinct, well-spread outputs.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value that depends on all of `parts`, in order.
pub fn mix(parts: &[u64]) -> u64 {
    parts.iter().fold(0x5353_444D, |acc, &p| mix64(acc ^ p))
}

/// A tiny deterministic generator for workload parameters.
pub struct SeededRng(u64);

impl SeededRng {
    pub fn new(parts: &[u64]) -> SeededRng {
        SeededRng(mix(parts))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// A JSON value. Objects keep insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compact single-line rendering. Numbers print with every digit
    /// Rust's shortest round-trip formatting gives; non-finite numbers
    /// (which JSON cannot carry) print as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document (the subset this benchmark writes and
    /// `BENCHMARK.json` uses: no `\u` surrogate pairs).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn eat(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            self.err("unexpected token")
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => self.err("unexpected end"),
            Some(b'n') => self.eat("null", Json::Null),
            Some(b't') => self.eat("true", Json::Bool(true)),
            Some(b'f') => self.eat("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(b',')?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    if !pairs.is_empty() {
                        self.expect(b',')?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                }
            }
            Some(_) => self.number(),
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", byte as char))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    self.pos += 4;
                                    c
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    };
                    self.pos += 1;
                    out.extend_from_slice(escaped.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// /proc readers
// ---------------------------------------------------------------------

/// Kernel clock ticks per second for `/proc/self/stat`'s `utime` and
/// `stime`: `USER_HZ`, fixed at 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has consumed.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Bytes at rest under `dir` (regular files, recursively).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

// ---------------------------------------------------------------------
// CPU pin
// ---------------------------------------------------------------------

/// Confine this process to the last CPU it is allowed on and return
/// that CPU's number; threads started afterwards inherit the mask, so
/// call it before anything is spawned. `None` where the mask cannot be
/// read or set (then nothing has changed).
///
/// Server and load generator are a closed loop that keeps about one
/// core busy however many it has. Spread over two virtual CPUs of a
/// shared host, every hand-over between client, reactor and worker
/// wakes a halted CPU, which costs more than the request on
/// `http_point` and as much as the host's other guests make it cost: a
/// run measures where the scheduler happened to put the threads. On one
/// CPU a hand-over is a context switch, and the CPU never halts.
pub fn pin_to_one_cpu() -> Option<usize> {
    let allowed = affinity::get()?;
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let bit = 63 - allowed[word].leading_zeros() as usize;
    let mut one = [0u64; affinity::WORDS];
    one[word] = 1 << bit;
    if !affinity::set(&one) {
        return None;
    }
    // What `on_every_cpu` goes back to.
    let _ = ALLOWED.set(allowed);
    Some(word * 64 + bit)
}

/// The CPUs the process was allowed before [`pin_to_one_cpu`] took all
/// but one away.
static ALLOWED: std::sync::OnceLock<[u64; affinity::WORDS]> = std::sync::OnceLock::new();

/// Run `f` with the calling thread, and every thread it starts
/// meanwhile, back on all the CPUs the process had before it was
/// pinned; a process that was never pinned just runs `f`.
///
/// This is for the traced pass, which replays the clients' sequences on
/// one thread each and charges a request's whole wall time to its
/// spans: on one CPU the threads preempt each other in mid-request and
/// the time a request spent descheduled would be nobody's.
pub fn on_every_cpu<T>(f: impl FnOnce() -> T) -> T {
    let (Some(allowed), Some(pinned)) = (ALLOWED.get(), affinity::get()) else {
        return f();
    };
    affinity::set(allowed);
    let out = f();
    affinity::set(&pinned);
    out
}

/// The calling thread's CPU mask.
#[cfg(target_os = "linux")]
mod affinity {
    /// Room for 1024 CPUs.
    pub const WORDS: usize = 16;
    const BYTES: usize = WORDS * 8;

    // std links the C library, which has these two; pid 0 is the
    // calling thread.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<[u64; WORDS]> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is `BYTES` long and outlives the call.
        (unsafe { sched_getaffinity(0, BYTES, mask.as_mut_ptr()) } == 0).then_some(mask)
    }

    pub fn set(mask: &[u64; WORDS]) -> bool {
        // SAFETY: as above.
        unsafe { sched_setaffinity(0, BYTES, mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub const WORDS: usize = 16;

    pub fn get() -> Option<[u64; WORDS]> {
        None
    }

    pub fn set(_: &[u64; WORDS]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_computed_nearest_rank() {
        // 1..=200: rank ceil(0.95 * 200) = 190, ten samples beyond.
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.95), Ok(190.0));
        assert_eq!(percentile(&mut v, 0.5), Ok(100.0));
        // 1..=400: rank 380, twenty beyond.
        let mut v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.95), Ok(380.0));
        let mut one = [7.5];
        assert_eq!(percentile(&mut one, 0.5), Ok(7.5));
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_beyond() {
        // 199 samples: rank ceil(189.05) = 190, nine beyond.
        let mut v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(
            percentile(&mut v, 0.95),
            Err(TooFewSamples {
                samples: 199,
                beyond: 9
            })
        );
        assert!(percentile(&mut [], 0.5).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn emitted_json_parses_back_to_the_same_value() {
        let value = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1234.0)),
            ("note", Json::Str("a \"quoted\"\tline\n".into())),
            (
                "metrics",
                Json::obj([(
                    "query_p50_ms",
                    Json::obj([
                        ("value", Json::Num(1.203_456_789_012_3)),
                        ("unit", Json::Str("ms".into())),
                    ]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Null, Json::Num(-2.5e-7)])),
        ]);
        let text = value.render();
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(Json::parse(&text), Ok(value));
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert!(Json::parse("{\"a\": 1} x").is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_leaves_the_calling_thread_one_cpu() {
        // In a thread of its own: the mask is the calling thread's, and
        // the other tests keep theirs.
        let cpus = std::thread::spawn(|| {
            pin_to_one_cpu().expect("the affinity mask can be read and set");
            std::thread::available_parallelism().map_or(0, |n| n.get())
        })
        .join()
        .expect("pinning thread");
        assert_eq!(cpus, 1);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(process_cpu_seconds().is_some());
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
