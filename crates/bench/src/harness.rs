//! The harness every `repro_*` scenario runs on: one flag parser
//! ([`Args`]), one report that prints each table and writes the same
//! rows as JSON ([`Report`]), one claim checker ([`Report::check`]), and
//! one timing helper and one percentile ([`best_of`], [`percentile`]).
//!
//! Every JSON file a scenario writes has one shape: `bench` and
//! `measured_at`, `config`, one key per table (an array of row objects),
//! and `checks` (`{claim, observed, bar, held}` per claim).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

/// A scenario's command line: the flags it declares and the ones given.
/// A declared flag is `"--name"` (a switch) or `"--name METAVAR"` (it
/// takes a value).
pub struct Args {
    bin: &'static str,
    spec: &'static [&'static str],
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse the process arguments against `spec`. A flag not declared,
    /// `--help`, a missing value, and (when read) a malformed value
    /// print usage and exit 2.
    pub fn parse(bin: &'static str, spec: &'static [&'static str]) -> Args {
        Args::parse_from(bin, spec, std::env::args().skip(1)).unwrap_or_else(|why| {
            let none = Args {
                bin,
                spec,
                given: Vec::new(),
            };
            none.refuse(&why)
        })
    }

    /// [`Args::parse`] over an explicit argument list, returning the
    /// error instead of exiting (empty for `--help`).
    fn parse_from(
        bin: &'static str,
        spec: &'static [&'static str],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut given = Vec::new();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let declared = spec
                .iter()
                .find(|s| s.split(' ').next() == Some(arg.as_str()))
                .ok_or_else(|| match arg.as_str() {
                    "--help" | "-h" => String::new(),
                    _ => format!("unknown argument: {arg}"),
                })?;
            let value = match declared.contains(' ') {
                true => Some(argv.next().ok_or_else(|| format!("{arg} needs a value"))?),
                false => None,
            };
            given.push((arg, value));
        }
        Ok(Args { bin, spec, given })
    }

    fn usage(&self) -> String {
        let flags: Vec<String> = self.spec.iter().map(|s| format!(" [{s}]")).collect();
        format!("usage: {}{}", self.bin, flags.concat())
    }

    fn refuse(&self, why: &str) -> ! {
        if !why.is_empty() {
            eprintln!("{why}");
        }
        eprintln!("{}", self.usage());
        std::process::exit(2)
    }

    fn declares(&self, name: &str) -> bool {
        self.spec.iter().any(|s| s.split(' ').next() == Some(name))
    }

    pub fn quick(&self) -> bool {
        self.given.iter().any(|(name, _)| name == "--quick")
    }

    /// The last value given for `name`, parsed; a malformed one is a
    /// usage error.
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T> {
        let (_, raw) = self.given.iter().rev().find(|(n, _)| n == name)?;
        let raw = raw.as_deref()?;
        let parsed = raw.parse();
        Some(parsed.unwrap_or_else(|_| self.refuse(&format!("malformed {name}: {raw}"))))
    }

    /// The `--workers N[,N]...` sweep, default 1,2,4,8: `--quick` keeps
    /// 1 and 4, and 1, the baseline every speedup divides, is always in.
    pub fn workers(&self) -> Vec<usize> {
        let mut workers = match self.value::<String>("--workers") {
            Some(list) => parse_workers(&list).unwrap_or_else(|why| self.refuse(&why)),
            None => vec![1, 2, 4, 8],
        };
        if self.quick() {
            workers.retain(|&w| w == 1 || w == 4);
            if workers.is_empty() {
                workers = vec![1, 4];
            }
        }
        workers.push(1);
        workers.sort_unstable();
        workers.dedup();
        workers
    }
}

/// A comma-separated worker list; an empty or non-numeric entry is
/// refused.
fn parse_workers(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|w| {
            w.parse()
                .map_err(|_| format!("malformed --workers: {list}"))
        })
        .collect()
}

/// A JSON value: as much of JSON as the reports write.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Written as `null` when not finite.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Num(x as f64)
            }
        }
    )*};
}
json_from_number!(f64, u64, usize, i64, i32, u32, u8);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// The value on one line.
    fn inline(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => {
                // Fractions to six significant digits: the measurement,
                // not the noise of the arithmetic that derived it.
                let x = match x.fract() {
                    0.0 => *x,
                    _ => format!("{x:.5e}").parse().expect("a float"),
                };
                write!(out, "{x}").expect("write to a String")
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("write"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { ", " });
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { ", " });
                    Json::Str(key.clone()).write(out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// How a table column shows its values; the JSON keeps them whole.
#[derive(Clone, Copy, Debug)]
pub enum Fmt {
    /// As is: labels and counts.
    Plain,
    /// Fixed decimals.
    Fixed(usize),
    /// Fixed decimals and a unit such as `x` or `ms`.
    Unit(usize, &'static str),
    /// A fraction as a percentage.
    Pct(usize),
    /// Milliseconds, precision by magnitude.
    Ms,
}

impl Fmt {
    fn show(self, v: &Json) -> String {
        let x = match v {
            Json::Num(x) => *x,
            Json::Str(s) => return s.clone(),
            Json::Null => return "n/a".into(),
            other => return other.inline(),
        };
        match self {
            Fmt::Plain => format!("{x}"),
            Fmt::Fixed(p) => format!("{x:.p$}"),
            Fmt::Unit(p, unit) => format!("{x:.p$}{unit}"),
            Fmt::Pct(p) => format!("{:.p$}%", x * 100.0),
            Fmt::Ms if x >= 100.0 => format!("{x:.0}"),
            Fmt::Ms if x >= 1.0 => format!("{x:.2}"),
            Fmt::Ms => format!("{x:.4}"),
        }
    }
}

/// The bar a claim's observed value is checked against.
#[derive(Clone, Copy, Debug)]
pub enum Bar {
    AtLeast(f64),
    AtMost(f64),
    Below(f64),
    Equals(f64),
}

impl Bar {
    fn holds(self, x: f64) -> bool {
        match self {
            Bar::AtLeast(b) => x >= b,
            Bar::AtMost(b) => x <= b,
            Bar::Below(b) => x < b,
            Bar::Equals(b) => x == b,
        }
    }

    fn show(self) -> String {
        let (op, b) = match self {
            Bar::AtLeast(b) => (">=", b),
            Bar::AtMost(b) => ("<=", b),
            Bar::Below(b) => ("<", b),
            Bar::Equals(b) => ("==", b),
        };
        format!("{op} {}", short(b))
    }
}

/// A checked number as printed: whole numbers bare, others to three
/// decimals.
fn short(x: f64) -> String {
    let decimals = if x.fract() == 0.0 { 0 } else { 3 };
    format!("{x:.decimals$}")
}

/// One scenario run's report: config, tables and checked claims,
/// printed as they come and written as one JSON file when the scenario
/// declares `--out`.
pub struct Report {
    bench: &'static str,
    out: Option<String>,
    config: Vec<(String, Json)>,
    tables: Vec<(String, Json)>,
    checks: Vec<Json>,
    failed: usize,
}

impl Report {
    /// A report for `args`' scenario. Its JSON goes to `--out`, by
    /// default `BENCH_<name>.json` for `repro_<name>`; a scenario that
    /// declares no `--out` writes none.
    pub fn new(args: &Args) -> Report {
        let default_out = || format!("BENCH_{}.json", args.bin.trim_start_matches("repro_"));
        let out = args
            .declares("--out")
            .then(|| args.value("--out").unwrap_or_else(default_out));
        let mut config = Vec::new();
        if args.declares("--quick") {
            config.push(("quick".to_string(), args.quick().into()));
        }
        Report {
            bench: args.bin,
            out,
            config,
            tables: Vec::new(),
            checks: Vec::new(),
            failed: 0,
        }
    }

    pub fn config(&mut self, entries: &[(&str, Json)]) {
        let entries = entries.iter().map(|(k, v)| (k.to_string(), v.clone()));
        self.config.extend(entries);
    }

    /// Print a table and keep its rows for the JSON under `key`. A
    /// column is `(header, JSON key, display format)`, and a row holds
    /// one value per column; an empty header keeps a column out of the
    /// printed table, an empty key out of the JSON.
    pub fn table<H: AsRef<str>, K: AsRef<str>>(
        &mut self,
        key: &str,
        title: &str,
        cols: &[(H, K, Fmt)],
        rows: Vec<Vec<Json>>,
    ) {
        let shown = |i: &usize| !cols[*i].0.as_ref().is_empty();
        let printed: Vec<usize> = (0..cols.len()).filter(shown).collect();
        let header: Vec<String> = printed.iter().map(|&i| cols[i].0.as_ref().into()).collect();
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|r| printed.iter().map(|&i| cols[i].2.show(&r[i])).collect())
            .collect();
        print_table(title, &header, &cells);
        let rows = rows.into_iter().map(|r| {
            let fields = cols.iter().map(|c| c.1.as_ref().to_string()).zip(r);
            Json::Obj(fields.filter(|(k, _)| !k.is_empty()).collect())
        });
        self.tables
            .push((key.to_string(), Json::Arr(rows.collect())));
    }

    /// Check `observed` against `bar`: print ✓ or ✗ and record
    /// `{claim, observed, bar, held}` under `checks`. A failed check
    /// does not stop the run; [`Report::finish`] fails it at the end.
    pub fn check(&mut self, claim: impl Into<String>, observed: f64, bar: Bar) -> bool {
        let (claim, held) = (claim.into(), bar.holds(observed));
        let mark = if held { "✓" } else { "✗" };
        println!("{mark} {claim}: {} ({})", short(observed), bar.show());
        self.checks.push(Json::Obj(vec![
            ("claim".into(), claim.into()),
            ("observed".into(), observed.into()),
            ("bar".into(), bar.show().into()),
            ("held".into(), held.into()),
        ]));
        self.failed += usize::from(!held);
        held
    }

    /// The report as JSON: top-level keys one per line, table rows one
    /// per line.
    fn json(&self) -> String {
        let head = [
            ("bench".to_string(), self.bench.into()),
            ("measured_at".to_string(), measured_at().into()),
            ("config".to_string(), Json::Obj(self.config.clone())),
        ];
        let checks = ("checks".to_string(), Json::Arr(self.checks.clone()));
        let lines: Vec<String> = head
            .iter()
            .chain(&self.tables)
            .chain([&checks])
            .map(|(key, value)| {
                let value = match value {
                    Json::Arr(rows) if !rows.is_empty() => {
                        let rows: Vec<String> = rows.iter().map(Json::inline).collect();
                        format!("[\n    {}\n  ]", rows.join(",\n    "))
                    }
                    other => other.inline(),
                };
                format!("  {}: {value}", Json::Str(key.clone()).inline())
            })
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Write the JSON, if the scenario has an `--out`, then say whether
    /// every check held.
    fn conclude(&self) -> bool {
        if let Some(out) = &self.out {
            std::fs::write(out, self.json()).unwrap_or_else(|e| panic!("write {out}: {e}"));
            println!("wrote {out}");
        }
        if self.failed > 0 {
            eprintln!("{} of {} checks failed", self.failed, self.checks.len());
        }
        self.failed == 0
    }

    /// Write the JSON, if the scenario has an `--out`, and return the
    /// process' exit code: 1 when a check failed.
    pub fn finish(self) -> ExitCode {
        match self.conclude() {
            true => ExitCode::SUCCESS,
            false => ExitCode::FAILURE,
        }
    }
}

/// Print an aligned table: header then rows of cells.
fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n== {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for r in rows {
        for (w, c) in widths.iter_mut().zip(r) {
            *w = (*w).max(c.chars().count());
        }
    }
    let line = |cells: &[String]| -> String {
        let padded = cells
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c:<w$}  "));
        padded.collect()
    };
    println!("{}", line(header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for r in rows {
        println!("{}", line(r));
    }
}

/// The fastest of `repeats` timed runs of `f`, in milliseconds, with
/// the last run's result: the minimum is the least-noise estimate for a
/// deterministic computation.
pub fn best_of<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        result = Some(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, result.expect("at least one run"))
}

/// Nearest-rank percentile, `p` in `0..=1`: the smallest sample with at
/// least a `p` share of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// What a written report is stamped with: the short hash of the
/// checked-out commit, `+dirty` when the working tree differs from it
/// (a measurement taken before its own commit exists names the parent),
/// `unknown` outside a git checkout.
fn measured_at() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) if !head.is_empty() => match git(&["status", "--porcelain"]) {
            Some(changes) if changes.is_empty() => head,
            _ => format!("{head}+dirty"),
        },
        _ => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &[&str] = &["--quick", "--workers N[,N]...", "--out PATH"];

    fn args(argv: &[&str]) -> Result<Args, String> {
        Args::parse_from("repro_test", SPEC, argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn only_declared_flags_parse() {
        let a = args(&["--quick", "--out", "x.json"]).unwrap();
        assert!(a.quick());
        assert_eq!(a.value::<String>("--out").as_deref(), Some("x.json"));
        assert_eq!(a.value::<String>("--workers"), None);
        assert!(!args(&[]).unwrap().quick());
        let refused = |argv: &[&str]| args(argv).err().expect("refused");
        assert_eq!(refused(&["--rounds", "3"]), "unknown argument: --rounds");
        assert_eq!(refused(&["quick"]), "unknown argument: quick");
        assert_eq!(refused(&["--out"]), "--out needs a value");
        assert_eq!(refused(&["--help"]), "");
        let usage = "usage: repro_test [--quick] [--workers N[,N]...] [--out PATH]";
        assert_eq!(a.usage(), usage);
    }

    #[test]
    fn worker_lists() {
        assert_eq!(parse_workers("1,4"), Ok(vec![1, 4]));
        for bad in ["", "1,", "1,,4", "two", "1;4", "-1"] {
            assert!(parse_workers(bad).is_err(), "{bad:?}");
        }
        let sweep = |argv: &[&str]| args(argv).unwrap().workers();
        assert_eq!(sweep(&[]), vec![1, 2, 4, 8]);
        assert_eq!(sweep(&["--workers", "4"]), vec![1, 4]);
        assert_eq!(sweep(&["--workers", "8,2"]), vec![1, 2, 8]);
        assert_eq!(sweep(&["--quick"]), vec![1, 4]);
        assert_eq!(sweep(&["--quick", "--workers", "2,8"]), vec![1, 4]);
        assert_eq!(sweep(&["--quick", "--workers", "1"]), vec![1]);
    }

    #[test]
    fn json_rendering() {
        let s = Json::from("a \"q\" \\ b\n\u{1}é");
        assert_eq!(s.inline(), r#""a \"q\" \\ b\n\u0001é""#);
        assert_eq!(Json::from(f64::NAN).inline(), "null");
        assert_eq!(Json::from(f64::NEG_INFINITY).inline(), "null");
        assert_eq!(Json::from(2.5).inline(), "2.5");
        assert_eq!(Json::from(256u64).inline(), "256");
        assert_eq!(Json::from(4_194_304u64).inline(), "4194304");
        assert_eq!(Json::from(0.1 + 0.2).inline(), "0.3");
        assert_eq!(Json::from(65.814789199).inline(), "65.8148");
        assert_eq!(Json::from(-1.25e-7).inline(), "-0.000000125");
        assert_eq!(Json::from(None::<u64>).inline(), "null");
        let row = Json::Obj(vec![("k".into(), 1u8.into())]);
        let nested = Json::Obj(vec![
            ("rows".into(), Json::Arr(vec![row])),
            ("ok".into(), true.into()),
        ]);
        assert_eq!(nested.inline(), r#"{"rows": [{"k": 1}], "ok": true}"#);
    }

    #[test]
    fn a_failed_check_still_writes_the_report_and_fails_it() {
        let file = format!("ssdm-harness-{}.json", std::process::id());
        let path = std::env::temp_dir().join(file);
        let out = path.to_str().unwrap();
        let mut report = Report::new(&args(&["--out", out]).unwrap());
        report.config(&[("rows", 128usize.into())]);
        let cols = [
            ("name", "name", Fmt::Plain),
            ("ms/q", "per_query_ms", Fmt::Fixed(2)),
            ("shown only", "", Fmt::Plain),
        ];
        let row = vec!["a".into(), 1.5.into(), 7u8.into()];
        report.table("cells", "a table", &cols, vec![row]);
        assert!(report.check("held", 3.0, Bar::AtLeast(2.0)));
        assert!(!report.check("missed", f64::NAN, Bar::Below(3.0)));
        assert!(!report.conclude());
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let head = "{\n  \"bench\": \"repro_test\",\n  \"measured_at\": ";
        assert!(written.starts_with(head), "{written}");
        for part in [
            r#"  "config": {"quick": false, "rows": 128},"#,
            "  \"cells\": [\n    {\"name\": \"a\", \"per_query_ms\": 1.5}\n  ],",
            r#"{"claim": "held", "observed": 3, "bar": ">= 2", "held": true}"#,
            r#"{"claim": "missed", "observed": null, "bar": "< 3", "held": false}"#,
        ] {
            assert!(written.contains(part), "{part} in {written}");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Fmt::Unit(1, "x").show(&3.26.into()), "3.3x");
        assert_eq!(Fmt::Pct(0).show(&0.5.into()), "50%");
        assert_eq!(Fmt::Ms.show(&0.25.into()), "0.2500");
        assert_eq!(Fmt::Ms.show(&250.4.into()), "250");
        assert_eq!(Fmt::Plain.show(&256u64.into()), "256");
        assert_eq!(Fmt::Fixed(1).show(&"ROW".into()), "ROW");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 0.99), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
