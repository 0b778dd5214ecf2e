//! `repro_e2e`: the end-to-end HTTP benchmark.
//!
//! Builds each workload's data from a seed, serves it with the real
//! `ssdm::http::HttpServer` over a `TenantRegistry` in this process,
//! drives it over loopback with closed-loop keep-alive clients, checks
//! every response body, and prints every metric by name with its unit.
//! See `README.md` beside this file for the workloads, the metrics and
//! what each is predicted to move.
//!
//! ```text
//! repro_e2e [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]]
//!           [--quick] [--check-repeat] [--save FILE] [--against FILE]
//!           [--work-dir DIR] [--no-pin]
//! ```
//!
//! A run confines itself to one CPU (`stats::pin_to_one_cpu` says why);
//! `--no-pin` leaves it every CPU the process may use, which is how a
//! gain from parallelism is looked at, not how it is gated.
//!
//! The last line of standard output for each workload is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. The exit code
//! is non-zero if any response was wrong, any acknowledged update was
//! lost, or a repeatability comparison exceeded a bound.

mod client;
mod gate;
mod layers;
mod metrics;
mod repeat;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use metrics::MetricDef;
use run::Outcome;
use stats::Json;
use workloads::WORKLOADS;

/// Measured wall seconds per workload when `--seconds` is not given;
/// equal to `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// `--quick`: smoke runs only, too short for the repeatability
/// criterion.
const QUICK_SECONDS: f64 = 2.0;

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
    save: Option<PathBuf>,
    against: Option<PathBuf>,
    work_dir: PathBuf,
    pin: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: repro_e2e [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] \
         [--quick] [--check-repeat] [--save FILE] [--against FILE] [--work-dir DIR] \
         [--no-pin]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let mut options = Options {
        workloads: WORKLOADS.map(|w| w.name).to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        check_repeat: false,
        save: None,
        against: None,
        work_dir: target.join("repro_e2e"),
        pin: true,
    };
    let mut seconds_given = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload");
                match WORKLOADS.iter().find(|w| w.name == name) {
                    Some(w) => options.workloads = vec![w.name],
                    None => usage(&format!("unknown workload {name}")),
                }
            }
            "--seed" => {
                options.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                options.seconds = match value("--seconds").parse() {
                    Ok(s) if s > 0.0 => s,
                    _ => usage("--seconds takes a positive number"),
                };
                seconds_given = true;
            }
            "--trace" => {
                // The flag alone means on; the driver passes 0 or 1.
                options.trace = match args.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--quick" => options.quick = true,
            "--check-repeat" => options.check_repeat = true,
            "--save" => options.save = Some(value("--save").into()),
            "--against" => options.against = Some(value("--against").into()),
            "--work-dir" => options.work_dir = value("--work-dir").into(),
            "--no-pin" => options.pin = false,
            "--help" | "-h" => usage("repro_e2e: the end-to-end HTTP benchmark"),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if options.quick {
        if seconds_given {
            usage("--quick fixes the duration; do not combine it with --seconds");
        }
        options.seconds = QUICK_SECONDS;
    }
    if options.check_repeat && options.trace {
        usage("--check-repeat compares end-to-end metrics; run it without --trace");
    }
    if options.against.is_some() && !options.check_repeat {
        usage("--against needs --check-repeat");
    }
    options
}

/// Run one workload in this process and print its result.
fn run_here(workload: &'static str, options: &Options) -> bool {
    let (outcome, defs) = if options.trace {
        let run = layers::per_layer_run(workload, options.seed, options.seconds, &options.work_dir);
        (run, metrics::per_layer())
    } else {
        let run = run::end_to_end(workload, options.seed, options.seconds, &options.work_dir);
        (run, metrics::end_to_end())
    };
    print_outcome(&outcome, &defs, options);
    outcome.correct
}

/// Run every selected workload once, each in a child process of its own
/// — as the driver runs them — so that no run inherits another's heap
/// and `peak_rss_mib` means the same in a set as in a single run. The
/// children's output is passed through; their result lines are kept.
fn run_set(options: &Options) -> (repeat::Saved, bool) {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for &workload in &options.workloads {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", workload, "--seed", &options.seed.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .arg("--work-dir")
            .arg(&options.work_dir)
            .stdout(Stdio::piped());
        if !options.pin {
            command.arg("--no-pin");
        }
        if options.quick {
            command.arg("--quick");
        } else {
            command.args(["--seconds", &options.seconds.to_string()]);
        }
        let mut child = command.spawn().expect("start a run of one workload");
        let mut last = String::new();
        for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
            last = line.expect("child output is text");
            println!("{last}");
        }
        let status = child.wait().expect("wait for the run");
        let result = Json::parse(&last).unwrap_or(Json::Null);
        all_correct &=
            status.success() && result.get("correct").and_then(Json::as_bool) == Some(true);
        let values = match result.get("metrics") {
            Some(Json::Obj(metrics)) => metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect(),
            _ => Vec::new(),
        };
        workloads.push((workload.to_string(), values));
    }
    let set = repeat::Saved {
        quick: options.quick,
        seed: options.seed,
        seconds: options.seconds,
        workloads,
    };
    (set, all_correct)
}

fn print_outcome(outcome: &Outcome, defs: &[MetricDef], options: &Options) {
    println!(
        "== {} (seed {}, {} s{}{}; {} CPU(s), shared by server and load generator) ==",
        outcome.workload,
        options.seed,
        options.seconds,
        if options.trace { ", traced" } else { "" },
        if options.quick { ", quick" } else { "" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == outcome.workload) {
        println!("{}", w.why);
    }
    for def in defs {
        let value = match outcome.values.get(&def.name) {
            Some(v) => format!("{v:.4}"),
            None => "n/a".to_string(),
        };
        println!(
            "{:<44} {value:>16} {:<6} ({} is better)",
            def.name, def.unit, def.better
        );
    }
    if !options.trace {
        // Observed on this run but not defined on every workload, so
        // reported here and carried as per-layer metrics.
        for name in [
            "update_p50_ms",
            "update_p95_ms",
            "failed_share",
            "stored_bytes_per_user_byte",
        ] {
            if let Some(v) = outcome.values.get(name) {
                println!("{name:<44} {v:>16.4}");
            }
        }
    }
    for remark in &outcome.values.remarks {
        println!("{remark}");
    }
    if let Some(error) = &outcome.error {
        println!("error: {error}");
    }
    println!("{}", result_line(outcome, defs, options.quick).render());
}

/// The contract's result object; `--quick` adds a `"quick": true`
/// stamp so a smoke run can never pass for a measurement.
fn result_line(outcome: &Outcome, defs: &[MetricDef], quick: bool) -> Json {
    let metrics = defs.iter().map(|def| {
        let value = outcome.values.get(&def.name).unwrap_or(f64::NAN);
        (
            def.name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.into())),
            ]),
        )
    });
    let mut fields = vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ];
    if quick {
        fields.push(("quick", Json::Bool(true)));
    }
    Json::obj(fields)
}

fn main() {
    let options = parse_args();
    if options.pin && stats::pin_to_one_cpu().is_none() {
        eprintln!("repro_e2e: could not confine the run to one CPU; it runs on all of them");
    }
    std::fs::create_dir_all(&options.work_dir).expect("create the work directory");
    // The single run the driver asks for happens in this process.
    if let ([workload], false) = (options.workloads.as_slice(), options.check_repeat) {
        if !run_here(workload, &options) {
            std::process::exit(1);
        }
        return;
    }

    // Refuse a bad --against file before measuring anything.
    let saved = options
        .against
        .as_ref()
        .map(|path| repeat::Saved::load(path).unwrap_or_else(|e| usage(&e)));
    let (set, mut ok) = run_set(&options);
    if let Some(path) = &options.save {
        std::fs::write(path, set.to_json().render() + "\n").expect("write --save file");
    }
    if options.check_repeat {
        // Earlier set first: the saved one, or else the one just run.
        let (first, second) = match saved {
            Some(saved) => (saved, set),
            None => {
                println!("-- second set --");
                let (second, correct) = run_set(&options);
                ok &= correct;
                (set, second)
            }
        };
        match repeat::compare(&first, &second) {
            Ok(report) => {
                print!("{}", report.text);
                ok &= report.within_bounds;
            }
            Err(refusal) => {
                println!("check-repeat refused: {refusal}");
                ok = false;
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
