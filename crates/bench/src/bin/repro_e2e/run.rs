//! One run of one workload: set up (several times, for a steady
//! `setup_s`), serve over loopback, drive the closed-loop clients for a
//! fixed wall time, check durability where the workload writes, and
//! reduce what the clients saw, window by window, to the end-to-end
//! metrics.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ssdm::http::{HttpConfig, HttpServer, ShutdownHandle};
use ssdm::Ssdm;

use crate::client::{run_client, ClientLog, Sample, Until};
use crate::metrics::Values;
use crate::stats::{dir_bytes, median, peak_rss_mib, percentile, process_cpu_seconds};
use crate::workloads::{self, Class, Setup, TraceKit, Writer, TEMPLATES, WORKERS};

/// Requests each client sends, untimed, as the last step of set-up:
/// fixed work, so a slower build shows a longer `setup_s`.
pub const WARMUP_REQUESTS: u64 = 60;

/// Set-ups per untraced run, whose median is `setup_s`: at least the
/// first number, and more — up to the second — while they add up to
/// less than [`SETUP_BUDGET_S`], so a set-up of milliseconds is
/// repeated often enough for its median to be steady, and one whose
/// time is mostly the sandbox's `fsync` (`mixed_rw`) a fourth time.
const SETUP_REPEATS: (usize, usize) = (3, 15);
const SETUP_BUDGET_S: f64 = 6.0;

/// A workload being served.
pub struct Serving {
    pub setup: Setup,
    pub addr: SocketAddr,
    shutdown: ShutdownHandle,
    server: JoinHandle<std::io::Result<()>>,
}

impl Serving {
    fn start(setup: Setup) -> Serving {
        let server = HttpServer::bind(
            "127.0.0.1:0",
            HttpConfig {
                workers: WORKERS,
                ..HttpConfig::default()
            },
        )
        .expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address");
        let shutdown = server.shutdown_handle().expect("shutdown handle");
        let registry = Arc::clone(&setup.registry);
        let server = std::thread::spawn(move || server.serve_registry(registry));
        Serving {
            setup,
            addr,
            shutdown,
            server,
        }
    }

    /// Drain the server and wait for its threads.
    pub fn stop(self) -> Setup {
        self.shutdown.shutdown();
        self.server
            .join()
            .expect("server thread")
            .expect("server drained cleanly");
        self.setup
    }

    /// Drive every client concurrently from request `first`, in a phase
    /// that began at `epoch`; `meanwhile` runs on the calling thread
    /// while they do.
    pub fn drive(
        &self,
        first: u64,
        until: Until,
        epoch: Instant,
        meanwhile: impl FnOnce(),
    ) -> Vec<ClientLog> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .setup
                .plans
                .iter()
                .map(|plan| scope.spawn(move || run_client(self.addr, plan, first, until, epoch)))
                .collect();
            meanwhile();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    }
}

/// Build, serve and warm up `workload` in a fresh `scratch` directory;
/// returns the serving workload, its warm-up logs and the seconds all
/// of that took.
pub fn set_up(
    workload: &str,
    seed: u64,
    scratch: &Path,
    kit: Option<&mut TraceKit>,
) -> (Serving, Vec<ClientLog>, f64) {
    let start = Instant::now();
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).expect("create scratch directory");
    let serving = Serving::start(workloads::build(workload, seed, scratch, kit));
    let warm = serving.drive(0, Until::Count(WARMUP_REQUESTS), Instant::now(), || ());
    (serving, warm, start.elapsed().as_secs_f64())
}

/// How often the measured phase reads the clock and the process's CPU
/// time; windows are whole numbers of these.
const TICK: Duration = Duration::from_millis(250);

/// Most windows a measured phase is cut into, and the fewest samples of
/// a class (queries, updates) the average window holds: enough that ten
/// lie beyond a window's 95th percentile even when it holds a third
/// fewer than the average.
const MAX_WINDOWS: usize = 15;
const MIN_WINDOW_SAMPLES: usize = 300;

/// The clock and the process's CPU time, read together.
#[derive(Clone, Copy)]
pub struct Tick {
    /// µs since the phase began.
    pub at_us: u32,
    pub cpu_s: f64,
}

impl Tick {
    fn now(epoch: Instant) -> Tick {
        Tick {
            at_us: u32::try_from(epoch.elapsed().as_micros()).unwrap_or(u32::MAX),
            cpu_s: process_cpu_seconds().unwrap_or(0.0),
        }
    }
}

/// A stretch of a measured phase between two ticks.
#[derive(Clone, Copy)]
pub struct Window {
    pub from: Tick,
    pub to: Tick,
}

impl Window {
    pub fn wall_s(&self) -> f64 {
        f64::from(self.to.at_us - self.from.at_us) / 1e6
    }

    pub fn holds(&self, sample: &Sample) -> bool {
        (self.from.at_us..self.to.at_us).contains(&sample.done_us)
    }
}

/// Everything a served phase produced.
pub struct Phase {
    pub logs: Vec<ClientLog>,
    /// The first at the start, then one every [`TICK`], the last after
    /// every client has stopped (so no sample lies beyond it).
    pub ticks: Vec<Tick>,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(ClientLog::failed).sum()
    }

    pub fn tally(&self) -> Tally {
        Tally {
            attempted: self.attempted(),
            failed: self.failed(),
            acked: acked_updates(&self.logs),
        }
    }

    /// The correct responses of every client.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.logs.iter().flat_map(|l| &l.ok)
    }

    /// Latencies in ms of the correct responses that `keep` selects.
    pub fn latencies_ms<'a>(
        &'a self,
        keep: impl Fn(&Sample) -> bool + 'a,
    ) -> impl Iterator<Item = f64> + 'a {
        self.samples()
            .filter(move |s| keep(s))
            .map(|s| f64::from(s.latency_ns) / 1e6)
    }

    /// Cut the phase into equal windows of whole ticks: as many as leave
    /// the average window [`MIN_WINDOW_SAMPLES`] of the scarcer request
    /// class, at most [`MAX_WINDOWS`], at least one.
    pub fn windows(&self) -> Vec<Window> {
        let scarcest = [Class::Query, Class::Update]
            .into_iter()
            .map(|class| self.samples().filter(|s| class_of(s) == class).count())
            .filter(|&n| n > 0)
            .min()
            .unwrap_or(0);
        let intervals = self.ticks.len() - 1;
        let count = (scarcest / MIN_WINDOW_SAMPLES).clamp(1, MAX_WINDOWS.min(intervals));
        (0..count)
            .map(|w| Window {
                from: self.ticks[w * intervals / count],
                to: self.ticks[(w + 1) * intervals / count],
            })
            .collect()
    }
}

fn class_of(sample: &Sample) -> Class {
    TEMPLATES[usize::from(sample.template)].class
}

/// The measured phase: every client runs closed-loop from request
/// `first` for `seconds` of wall time, while this thread takes a
/// [`Tick`] four times a second.
pub fn measure(serving: &Serving, first: u64, seconds: f64) -> Phase {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut ticks = vec![Tick::now(epoch)];
    let logs = serving.drive(first, Until::Deadline(deadline), epoch, || loop {
        let next = epoch + TICK * ticks.len() as u32;
        // The last regular tick leaves the final one, taken once the
        // clients have stopped, at least half a tick of its own.
        if next + TICK / 2 > deadline {
            break;
        }
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        ticks.push(Tick::now(epoch));
    });
    ticks.push(Tick::now(epoch));
    Phase { logs, ticks }
}

/// Stop serving and, where the workload is durable, reopen its directory and
/// check that exactly the acknowledged writer state is there. Returns
/// how many acknowledged updates were lost or undone (0 elsewhere).
fn stop_and_verify(serving: Serving, acked: &[u64]) -> u64 {
    // Dropping the set-up closes the engine and its log writer.
    let Some(dir) = serving.stop().durable else {
        return 0;
    };
    let mut reopened = Ssdm::open_durable(dir).expect("reopen the durable directory");
    let found: std::collections::BTreeSet<String> = reopened
        .query(&format!(
            "SELECT ?t WHERE {{ <{ns}experimentW> <{ns}task> ?t }}",
            ns = ssdm::bistab::NS
        ))
        .expect("query the reopened instance")
        .into_rows()
        .expect("a SELECT returns rows")
        .into_iter()
        .filter_map(|row| row.into_iter().next().flatten())
        .map(|v| v.to_string().trim_matches(['<', '>']).to_string())
        .collect();
    let expected = Writer::surviving_tasks(acked);
    expected.symmetric_difference(&found).count() as u64
}

/// The result of one run of one workload.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    /// Wrong responses plus acknowledged updates missing after the
    /// reopen.
    pub failed: u64,
    /// Nothing failed, in the warm-up either, and every metric could be
    /// computed.
    pub correct: bool,
    pub values: Values,
    /// Why a metric could not be computed, if one could not.
    pub error: Option<String>,
}

/// The median of one value per window. A window that could not give
/// its value (no request completed in it, too few for its percentile)
/// was slower than any that could and sorts last; `None` when the
/// median itself falls on such a window.
fn across_windows(windows: &[Window], value: impl Fn(&Window) -> Option<f64>) -> Option<f64> {
    let mut values: Vec<f64> = windows
        .iter()
        .map(|w| value(w).unwrap_or(f64::INFINITY))
        .collect();
    median(&mut values).filter(|m| m.is_finite())
}

/// Reduce a measured phase to its end-to-end observations: the bounded
/// metrics, and those not defined on every workload (`update_*`,
/// `failed_share`, `stored_bytes_per_user_byte`). Every timing is taken
/// window by window and reported as the median over the windows, so a
/// stretch in which the host took the cores away moves a few windows
/// and not the run. Returns why a metric could not be computed, if one
/// could not.
pub fn reduce(phase: &Phase, setup: &Setup, scratch: &Path, values: &mut Values) -> Option<String> {
    let windows = phase.windows();
    let mut error = None;
    let mut report = |name: &str, value: Option<f64>| match value {
        Some(v) => values.set(name, v),
        None => {
            error = Some(format!(
                "{name}: {} windows, most of them with no request completed or fewer than {} \
                 samples beyond the percentile",
                windows.len(),
                crate::stats::MIN_BEYOND
            ))
        }
    };
    let completed = |w: &Window| phase.samples().filter(|s| w.holds(s)).count();
    report(
        "throughput_rps",
        across_windows(&windows, |w| Some(completed(w) as f64 / w.wall_s())),
    );
    for (class, prefix) in [(Class::Query, "query"), (Class::Update, "update")] {
        if !phase.samples().any(|s| class_of(s) == class) {
            continue;
        }
        for (p, suffix) in [(0.5, "p50_ms"), (0.95, "p95_ms")] {
            let in_window = |w: &Window| {
                let mut ms: Vec<f64> = phase
                    .latencies_ms(|s| class_of(s) == class && w.holds(s))
                    .collect();
                percentile(&mut ms, p).ok()
            };
            report(
                &format!("{prefix}_{suffix}"),
                across_windows(&windows, in_window),
            );
        }
    }
    report(
        "cpu_ms_per_req",
        across_windows(&windows, |w| match completed(w) {
            0 => None,
            n => Some((w.to.cpu_s - w.from.cpu_s) * 1e3 / n as f64),
        }),
    );
    // A window the host disturbed shows here.
    values.remarks.push(format!(
        "windows: {}; req/s in each:{}",
        windows.len(),
        windows
            .iter()
            .map(|w| format!(" {:.1}", completed(w) as f64 / w.wall_s()))
            .collect::<String>()
    ));
    values.set(
        "failed_share",
        phase.failed() as f64 / phase.attempted().max(1) as f64,
    );
    if setup.on_disk {
        values.set(
            "stored_bytes_per_user_byte",
            dir_bytes(scratch) as f64 / setup.user_bytes as f64,
        );
    }
    error
}

/// An untraced run: the end-to-end metrics of `workload`.
pub fn end_to_end(workload: &'static str, seed: u64, seconds: f64, work_dir: &Path) -> Outcome {
    let scratch = scratch_dir(work_dir, workload);
    let mut setups: Vec<f64> = Vec::new();
    let mut current: Option<(Serving, Vec<ClientLog>)> = None;
    while setups.len() < SETUP_REPEATS.0
        || (setups.len() < SETUP_REPEATS.1 && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // One set-up at a time owns the scratch directory.
        if let Some((serving, _)) = current.take() {
            drop(serving.stop());
        }
        let (serving, warm, took) = set_up(workload, seed, &scratch, None);
        setups.push(took);
        current = Some((serving, warm));
    }
    let (serving, warm) = current.expect("at least one set-up");

    let phase = measure(&serving, WARMUP_REQUESTS, seconds);
    let mut values = Values::default();
    values.set("setup_s", median(&mut setups).expect("at least one set-up"));
    let error = reduce(&phase, &serving.setup, &scratch, &mut values);
    values.set("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN));

    conclude(
        workload,
        serving,
        &scratch,
        &warm,
        phase.tally(),
        values,
        error,
    )
}

/// What happened after the warm-up: requests attempted and failed, and
/// the update requests acknowledged, in sequence order.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub acked: Vec<u64>,
}

/// End a run: stop the server, check durability, clear the scratch
/// directory and settle whether the run was correct.
pub fn conclude(
    workload: &'static str,
    serving: Serving,
    scratch: &Path,
    warm: &[ClientLog],
    after_warm: Tally,
    values: Values,
    error: Option<String>,
) -> Outcome {
    let mut acked = acked_updates(warm);
    acked.extend(after_warm.acked);
    let lost = stop_and_verify(serving, &acked);
    let _ = std::fs::remove_dir_all(scratch);
    let warm_failed: u64 = warm.iter().map(ClientLog::failed).sum();
    let failed = after_warm.failed + lost;
    Outcome {
        workload,
        attempted: after_warm.attempted,
        failed,
        correct: failed == 0 && warm_failed == 0 && error.is_none(),
        values,
        error,
    }
}

fn acked_updates(logs: &[ClientLog]) -> Vec<u64> {
    logs.iter()
        .flat_map(|log| log.acked_updates.iter().copied())
        .collect()
}

pub fn scratch_dir(work_dir: &Path, workload: &str) -> PathBuf {
    // The process id keeps two concurrent runs out of each other's data.
    work_dir.join(format!("scratch-{workload}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase of `seconds` with a tick every 250 ms and one client
    /// that completed a `q1_filter` query every `every_us`.
    fn phase(seconds: u32, every_us: u32) -> Phase {
        let ticks = (0..=seconds * 4)
            .map(|i| Tick {
                at_us: i * 250_000,
                cpu_s: f64::from(i) * 0.25,
            })
            .collect();
        let ok = (0..seconds * 1_000_000 / every_us)
            .map(|i| Sample {
                template: 0,
                done_us: i * every_us,
                latency_ns: 1_000_000,
            })
            .collect();
        Phase {
            logs: vec![ClientLog {
                ok,
                ..ClientLog::default()
            }],
            ticks,
        }
    }

    #[test]
    fn windows_tile_the_phase_and_hold_enough_samples_each() {
        // 10 s at 100 req/s: 1000 samples make three windows, not four.
        let few = phase(10, 10_000);
        let windows = few.windows();
        assert_eq!(windows.len(), 1000 / MIN_WINDOW_SAMPLES);
        assert_eq!(windows[0].from.at_us, 0);
        assert_eq!(windows.last().unwrap().to.at_us, 10_000_000);
        for pair in windows.windows(2) {
            assert_eq!(pair[0].to.at_us, pair[1].from.at_us);
        }
        let held: usize = windows
            .iter()
            .map(|w| few.samples().filter(|s| w.holds(s)).count())
            .sum();
        assert_eq!(held, 1000);
        // Plenty of samples: the cap applies. Hardly any: one window.
        assert_eq!(phase(10, 100).windows().len(), MAX_WINDOWS);
        assert_eq!(phase(2, 10_000).windows().len(), 1);
    }

    #[test]
    fn a_disturbed_minority_of_windows_does_not_move_the_median() {
        let windows = phase(5, 100).windows();
        assert_eq!(windows.len(), MAX_WINDOWS);
        let slow_first = |n: usize| {
            let until = windows[n].from.at_us;
            move |w: &Window| Some(if w.from.at_us < until { 9.0 } else { 1.0 })
        };
        assert_eq!(across_windows(&windows, slow_first(7)), Some(1.0));
        assert_eq!(across_windows(&windows, slow_first(8)), Some(9.0));
        // A window without a value counts as slower than any with one.
        let mostly = |w: &Window| (w.from.at_us >= 2_000_000).then_some(1.0);
        assert_eq!(across_windows(&windows, mostly), Some(1.0));
        assert_eq!(across_windows(&windows, |_| None), None);
    }
}
