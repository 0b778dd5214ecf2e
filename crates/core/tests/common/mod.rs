//! Helpers shared by the parser robustness tests.

use std::sync::mpsc;
use std::time::Duration;

/// Run `f` on a fresh thread with a 2 MiB stack (the default for a
/// spawned thread) and return its result; fail if it has not returned
/// within `secs` seconds, so a parser that loops fails the test instead
/// of stalling the run.
pub fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn a worker thread");
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(out) => out,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no answer within {secs} s: a loop that never ends")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the worker sends before it ends"),
        },
    }
}
