//! `ssdm-cli` and `ssdm-server` as processes: the engine flags they
//! share build engines that answer alike, a durable directory carries an
//! insert from one process to the next, refused flag combinations exit
//! with status 2, and a back-end that cannot be created exits with
//! status 1 and a message instead of a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const CLI: &str = env!("CARGO_BIN_EXE_ssdm-cli");
const SERVER: &str = env!("CARGO_BIN_EXE_ssdm-server");

const INSERT: &str = "INSERT DATA { <http://s> <http://p> (1 2 3 4 5 6 7 8 9 10 11 12) ; \
                      <http://k> 7 . <http://t> <http://k> 3 . }";
const SELECT: &str = "SELECT ?s ?k (array_sum(?v) AS ?sum) (array_avg(?v[3:9]) AS ?mid) \
                      WHERE { ?s <http://k> ?k OPTIONAL { ?s <http://p> ?v } } ORDER BY ?k";

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssdm-bin-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `bin` with `args` and no stdin, killing it after 60 s.
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().unwrap();
            panic!("{bin} {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

fn stdout_of(args: &[&str]) -> String {
    let out = run(CLI, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "ssdm-cli {args:?} failed: {stderr}");
    assert!(!stderr.contains("error"), "ssdm-cli {args:?}: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

/// Exits with `code`, says why on stderr, and does not panic.
fn assert_exit(bin: &str, args: &[&str], code: i32, says: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(says), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{bin} {args:?}: {stderr}");
}

#[test]
fn exec_answers_alike_under_every_engine_flag() {
    let plain = stdout_of(&["--exec", INSERT, "--exec", SELECT]);
    assert!(plain.contains("78"), "{plain}");
    let flagged = stdout_of(&[
        "--shards",
        "2",
        "--replicas",
        "1",
        "--cache",
        "1048576",
        "--codec",
        "rle",
        "--planner",
        "greedy",
        "--threshold",
        "4",
        "--chunk",
        "64",
        "--exec",
        INSERT,
        "--exec",
        SELECT,
    ]);
    assert_eq!(flagged, plain);
}

#[test]
fn durable_directory_carries_an_insert_to_the_next_process() {
    let root = tmp_dir("durable");
    let dir = root.join("db");
    let dir = dir.to_str().unwrap();
    let first = stdout_of(&["--durable", dir, "--exec", INSERT, "--exec", SELECT]);
    let out = run(
        CLI,
        &["--durable", dir, "--cache", "65536", "--exec", SELECT],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("1 wal records replayed"), "{stderr}");
    let second = String::from_utf8(out.stdout).unwrap();
    assert!(first.ends_with(&second), "{first}\nvs\n{second}");
    assert!(second.contains("78"), "{second}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn refused_combinations_exit_2_and_unwritable_back_ends_exit_1() {
    let root = tmp_dir("refuse");
    let durable = root.join("db");
    let durable = durable.to_str().unwrap();
    let snapshot = root.join("snap.ssdm");
    let snapshot = snapshot.to_str().unwrap();
    let listen = ["--listen", "127.0.0.1:0"];
    for extra in [["--shards", "2"], ["--replicas", "1"]] {
        let args = [&["--durable", durable][..], &extra[..]].concat();
        assert_exit(CLI, &args, 2, "durable");
        assert_exit(SERVER, &[&listen[..], &args].concat(), 2, "durable");
    }
    assert_exit(
        CLI,
        &[
            "--durable",
            durable,
            "--snapshot",
            snapshot,
            "--exec",
            SELECT,
        ],
        2,
        "--snapshot",
    );
    assert!(
        !Path::new(durable).exists(),
        "a refused start creates nothing"
    );

    let blocker = root.join("blocker");
    std::fs::write(&blocker, b"a regular file").unwrap();
    let under = format!("{}/x", blocker.display());
    let file = format!("file:{under}");
    assert_exit(CLI, &["--backend", &file], 1, "cannot open");
    assert_exit(CLI, &["--durable", &under], 1, "cannot open");
    assert_exit(
        SERVER,
        &[&listen[..], &["--backend", &file]].concat(),
        1,
        "cannot open",
    );
    let tenant = format!("t:file={under}");
    assert_exit(
        SERVER,
        &[&listen[..], &["--tenants", &tenant]].concat(),
        1,
        "tenant t",
    );
    let tenant = format!("t:durable={under}:cache=1m");
    assert_exit(
        SERVER,
        &[&listen[..], &["--tenants", &tenant]].concat(),
        1,
        "tenant t",
    );
    let _ = std::fs::remove_dir_all(&root);
}
