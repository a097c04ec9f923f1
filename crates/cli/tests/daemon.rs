//! End-to-end tests of the multi-run archive (`--archive`, `fsck`, `query`,
//! `resume <archive>`) and the `optiwised` job server (submit/status/
//! shutdown over the Unix socket, signal-driven drain).
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn optiwise(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_optiwise"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn spawn_daemon(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_optiwised"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("optiwise-daemon-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Waits for the daemon's socket to accept connections.
fn wait_for_socket(socket: &Path, daemon: &mut Child) {
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(60) {
        if UnixStream::connect(socket).is_ok() {
            return;
        }
        if let Ok(Some(status)) = daemon.try_wait() {
            panic!("daemon died before serving: {status} — {}", drain_stderr(daemon));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = daemon.kill();
    panic!("daemon never opened {}", socket.display());
}

fn drain_stderr(daemon: &mut Child) -> String {
    let mut text = String::new();
    if let Some(stderr) = daemon.stderr.take() {
        let mut reader = BufReader::new(stderr);
        let _ = reader.read_to_string(&mut text);
    }
    text
}

fn send_sigterm(pid: u32) {
    let status = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -TERM {pid} failed");
}

/// One raw protocol exchange over the socket: a line in, a line back.
fn raw_request(socket: &Path, line: &str) -> String {
    let mut stream = UnixStream::connect(socket).unwrap();
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).unwrap();
    response
}

fn corrupt(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn archive_fsck_query_workflow() {
    let dir = scratch("fsck-query");
    let root = dir.to_str().unwrap();
    for (workload, seed) in [("loop_merge", "1"), ("rand_walk", "2"), ("udiv_chain", "3")] {
        let out = optiwise(&[
            "run", workload, "--size", "test", "--seed", seed, "--archive", root,
            "--out", "/dev/null",
        ]);
        assert!(out.status.success(), "{out:?}");
    }

    // A healthy archive: fsck exits 0 and query diffs the tail pairwise,
    // byte-identically for every worker count.
    let out = optiwise(&["fsck", root]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let seq = optiwise(&["query", root, "--last", "3", "--jobs", "1"]);
    assert!(seq.status.success(), "{seq:?}");
    let par = optiwise(&["query", root, "--last", "3", "--jobs", "8"]);
    assert!(par.status.success(), "{par:?}");
    assert_eq!(seq.stdout, par.stdout, "query differs across --jobs");
    let text = String::from_utf8_lossy(&seq.stdout);
    assert!(text.contains("== diff: run 1 (loop_merge) -> run 2 (rand_walk) =="), "{text}");
    assert!(text.contains("== diff: run 2 (rand_walk) -> run 3 (udiv_chain) =="), "{text}");

    // Corrupt one run on disk: fsck quarantines it and exits 11; a second
    // pass is clean; the file survives as evidence in quarantine/.
    corrupt(&dir.join("runs").join("run-000002.owp"));
    let out = optiwise(&["fsck", root]);
    assert_eq!(out.status.code(), Some(11), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("quarantined"), "{stdout}");
    assert!(dir.join("quarantine").join("run-000002.owp").is_file());
    let out = optiwise(&["fsck", root]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // The surviving committed runs still serve.
    let out = optiwise(&["query", root, "--last", "2"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== diff: run 1 (loop_merge) -> run 3 (udiv_chain) =="), "{text}");

    // A path that is not a directory is beyond repair: exit 12.
    let file = dir.join("not-an-archive");
    std::fs::write(&file, b"x").unwrap();
    let out = optiwise(&["fsck", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(12), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn archive_retention_prunes_oldest_runs() {
    let dir = scratch("retention");
    let root = dir.to_str().unwrap();
    for seed in ["1", "2", "3", "4"] {
        let out = optiwise(&[
            "run", "loop_merge", "--size", "test", "--seed", seed,
            "--archive", root, "--max-runs", "2", "--out", "/dev/null",
        ]);
        assert!(out.status.success(), "{out:?}");
    }
    let runs: Vec<String> = std::fs::read_dir(dir.join("runs"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(runs.len(), 2, "retention kept {runs:?}");
    assert!(runs.contains(&"run-000003.owp".to_string()), "{runs:?}");
    assert!(runs.contains(&"run-000004.owp".to_string()), "{runs:?}");
    let out = optiwise(&["fsck", root]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_needs_two_committed_runs() {
    let dir = scratch("query-two");
    let root = dir.to_str().unwrap();
    let out = optiwise(&[
        "run", "loop_merge", "--size", "test", "--archive", root, "--out", "/dev/null",
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&["query", root]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("needs at least 2"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_cancels_run_with_exit_8() {
    // SIGTERM takes the same exit-8 path as SIGINT and --deadline: a
    // supervisor's `kill` must look exactly like an operator's Ctrl-C.
    let child = Command::new(env!("CARGO_BIN_EXE_optiwise"))
        .args(["run", "long_haul", "--size", "ref", "--out", "/dev/null"])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    send_sigterm(child.id());
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(8), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cancelled"), "{stderr}");
}

/// Full serve-mode round trip at one worker count; returns the query
/// report bytes for cross-count comparison.
fn serve_round_trip(jobs: &str) -> Vec<u8> {
    let dir = scratch(&format!("serve-{jobs}"));
    let root = dir.to_str().unwrap().to_string();
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();
    let mut daemon = spawn_daemon(&[
        "--archive", &root, "--socket", sock, "--jobs", jobs, "--size", "test",
    ]);
    wait_for_socket(&socket, &mut daemon);

    let ping = raw_request(&socket, "{\"cmd\":\"ping\"}");
    assert!(ping.contains("\"ok\":true"), "{ping}");

    let out = optiwise(&["submit", "--socket", sock, "rand_walk", "--seed", "7"]);
    assert!(out.status.success(), "{out:?}");
    let line = String::from_utf8_lossy(&out.stdout);
    assert!(line.contains("\"ok\":true"), "{line}");
    assert!(line.contains("\"run\":1"), "{line}");
    let out = optiwise(&["submit", "--socket", sock, "loop_merge", "--seed", "9"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"run\":2"), "{out:?}");

    let out = optiwise(&["status", "--socket", sock]);
    assert!(out.status.success(), "{out:?}");
    let line = String::from_utf8_lossy(&out.stdout);
    assert!(line.contains("\"runs\":2"), "{line}");
    assert!(line.contains("\"draining\":false"), "{line}");

    // The archive the daemon serves is a plain archive: the offline tools
    // read it directly while the daemon is still up.
    let query = optiwise(&["query", &root, "--last", "2", "--jobs", jobs]);
    assert!(query.status.success(), "{query:?}");
    let text = String::from_utf8_lossy(&query.stdout);
    assert!(text.contains("== diff: run 1 (rand_walk) -> run 2 (loop_merge) =="), "{text}");

    // Graceful drain: shutdown answers, the daemon exits 0, the socket
    // file is gone, the archive is clean.
    let out = optiwise(&["shutdown", "--socket", sock]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"draining\":true"), "{out:?}");
    let status = daemon.wait().unwrap();
    assert_eq!(status.code(), Some(0), "daemon: {}", drain_stderr(&mut daemon));
    assert!(!socket.exists(), "socket file not removed");
    let out = optiwise(&["fsck", &root]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let _ = std::fs::remove_dir_all(&dir);
    query.stdout
}

#[test]
fn daemon_round_trip_is_byte_identical_across_worker_counts() {
    let seq = serve_round_trip("1");
    let par = serve_round_trip("8");
    assert_eq!(seq, par, "serve-mode query differs between --jobs 1 and --jobs 8");
}

#[test]
fn daemon_rejects_malformed_and_unknown_requests() {
    let dir = scratch("bad-requests");
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();
    let mut daemon = spawn_daemon(&[
        "--archive", dir.join("archive").to_str().unwrap(), "--socket", sock,
    ]);
    wait_for_socket(&socket, &mut daemon);

    for (request, expect) in [
        ("this is not json", "bad request"),
        ("{\"cmd\":\"explode\"}", "unknown cmd"),
        ("{\"no\":\"cmd\"}", "needs a string `cmd`"),
        ("{\"cmd\":\"submit\"}", "needs a string `workload`"),
        ("{\"cmd\":\"submit\",\"workload\":\"x\",\"size\":\"huge\"}", "unknown size"),
    ] {
        let response = raw_request(&socket, request);
        assert!(response.contains("\"ok\":false"), "{request} -> {response}");
        assert!(response.contains(expect), "{request} -> {response}");
    }
    // A job that fails remotely reports its own exit code over the wire
    // and the client mirrors it (unknown workload = usage error, exit 1).
    let out = optiwise(&["submit", "--socket", sock, "not_a_workload"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let line = String::from_utf8_lossy(&out.stdout);
    assert!(line.contains("\"exit\":1"), "{line}");

    let out = optiwise(&["shutdown", "--socket", sock]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(daemon.wait().unwrap().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deterministic_job_failure_runs_once() {
    // A strict job whose counts pass is cut by an injected fault fails the
    // same way on every execution, so the daemon answers it after one run.
    let dir = scratch("fail-once");
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();
    let mut daemon = spawn_daemon(&[
        "--archive", dir.join("archive").to_str().unwrap(), "--socket", sock,
        "--size", "test", "--strict", "--inject", "truncate-counts=2000",
    ]);
    wait_for_socket(&socket, &mut daemon);

    let out = optiwise(&["submit", "--socket", sock, "stack_attr", "--seed", "3"]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let line = String::from_utf8_lossy(&out.stdout);
    assert!(line.contains("\"exit\":4"), "{line}");

    let out = optiwise(&["shutdown", "--socket", sock]);
    assert!(out.status.success(), "{out:?}");
    let status = daemon.wait().unwrap();
    let stderr = drain_stderr(&mut daemon);
    assert_eq!(status.code(), Some(0), "daemon: {stderr}");
    assert!(!stderr.contains("retrying"), "daemon re-ran the job: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_sigterm_drains_with_exit_8_and_preserves_checkpoints() {
    let dir = scratch("term-drain");
    let root = dir.to_str().unwrap().to_string();
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap().to_string();
    let mut daemon = spawn_daemon(&[
        "--archive", &root, "--socket", &sock,
        "--checkpoint-every", "2000",
    ]);
    wait_for_socket(&socket, &mut daemon);

    // A long job the drain will interrupt; the client blocks in a thread.
    let client = {
        let sock = sock.clone();
        std::thread::spawn(move || {
            optiwise(&["submit", "--socket", &sock, "long_haul", "--size", "ref"])
        })
    };
    // Wait until the job is admitted, then give it a moment to start.
    let start = Instant::now();
    loop {
        assert!(start.elapsed() < Duration::from_secs(60), "job never admitted");
        let status = raw_request(&socket, "{\"cmd\":\"status\"}");
        if status.contains("\"pending\":1") {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    std::thread::sleep(Duration::from_millis(300));

    send_sigterm(daemon.id());
    let status = daemon.wait().unwrap();
    assert_eq!(status.code(), Some(8), "daemon: {}", drain_stderr(&mut daemon));

    // The in-flight job was answered, never dropped: either the drain
    // cancelled it (its checkpoint survives for `resume`) or it won the
    // race and archived.
    let out = client.join().unwrap();
    let line = String::from_utf8_lossy(&out.stdout);
    if line.contains("\"ok\":false") {
        assert_eq!(out.status.code(), Some(8), "{out:?}");
        assert!(
            dir.join("checkpoints").join("job-000001.owp").is_file(),
            "cancelled job left no checkpoint"
        );
    } else {
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    // Whatever happened, the archive is servable.
    let out = optiwise(&["fsck", &root]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_archive_finds_newest_checkpoint_and_reclaims_it() {
    let dir = scratch("resume-archive");
    let root = dir.to_str().unwrap();
    // Seed the archive (creates its directory layout), then strand a
    // daemon-style checkpoint in it with an injected kill.
    let golden = dir.join("golden.owp");
    let out = optiwise(&[
        "run", "long_haul", "--size", "test", "--seed", "5",
        "--archive", root, "--save", golden.to_str().unwrap(), "--out", "/dev/null",
    ]);
    assert!(out.status.success(), "{out:?}");
    let ck = dir.join("checkpoints").join("job-000001.owp");
    let out = optiwise(&[
        "run", "long_haul", "--size", "test", "--seed", "5",
        "--checkpoint", ck.to_str().unwrap(),
        "--checkpoint-every", "2000", "--inject", "kill-after=8000",
        "--out", "/dev/null",
    ]);
    assert_eq!(out.status.code(), Some(9), "{out:?}");

    // `resume <archive>` picks the newest incomplete checkpoint, finishes
    // the run byte-identically, and reclaims the checkpoint file.
    let resumed = dir.join("resumed.owp");
    let out = optiwise(&[
        "resume", root, "--save", resumed.to_str().unwrap(), "--out", "/dev/null",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        std::fs::read(&golden).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "resumed profile differs from the uninterrupted run"
    );
    assert!(!ck.exists(), "completed checkpoint was not reclaimed");

    // Nothing left to resume: a clear usage error, not a crash.
    let out = optiwise(&["resume", root]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no incomplete checkpoint"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_boot_heals_damaged_archive() {
    let dir = scratch("boot-heal");
    let root = dir.to_str().unwrap().to_string();
    for seed in ["1", "2"] {
        let out = optiwise(&[
            "run", "loop_merge", "--size", "test", "--seed", seed,
            "--archive", &root, "--out", "/dev/null",
        ]);
        assert!(out.status.success(), "{out:?}");
    }
    // Tear one run and delete the manifest: a crashed predecessor at its
    // worst. The daemon must heal and serve what survives.
    corrupt(&dir.join("runs").join("run-000001.owp"));
    std::fs::remove_file(dir.join("MANIFEST.owp")).unwrap();

    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();
    let mut daemon = spawn_daemon(&["--archive", &root, "--socket", sock]);
    wait_for_socket(&socket, &mut daemon);
    let status = raw_request(&socket, "{\"cmd\":\"status\"}");
    assert!(status.contains("\"runs\":1"), "{status}");
    assert!(dir.join("quarantine").join("run-000001.owp").is_file());

    let out = optiwise(&["shutdown", "--socket", sock]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(daemon.wait().unwrap().code(), Some(0));
    let stderr = drain_stderr(&mut daemon);
    assert!(stderr.contains("repaired on startup"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn newline_free_flood_gets_typed_error_and_daemon_survives() {
    let dir = scratch("flood");
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();
    let mut daemon = spawn_daemon(&[
        "--archive", dir.join("archive").to_str().unwrap(),
        "--socket", sock,
        "--max-line-bytes", "4096",
    ]);
    wait_for_socket(&socket, &mut daemon);

    // A hostile client: a megabyte of request with no newline in sight.
    // The daemon must stop buffering at its cap, answer with a typed
    // error frame and close — not grow its heap until the flood ends.
    let mut stream = UnixStream::connect(&socket).unwrap();
    let chunk = vec![b'x'; 64 << 10];
    for _ in 0..16 {
        // Once the daemon answers and closes, writes fail with EPIPE;
        // that is the expected end of the flood, not a test failure.
        if stream.write_all(&chunk).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    let _ = BufReader::new(&stream).read_line(&mut response);
    assert!(response.contains("\"ok\":false"), "{response}");
    assert!(response.contains("exceeds 4096 bytes"), "{response}");

    // The connection is closed: nothing follows the error frame.
    let mut rest = Vec::new();
    let mut reader = stream;
    let _ = reader.read_to_end(&mut rest);
    let after = String::from_utf8_lossy(&rest);
    assert!(!after.contains("ok"), "connection stayed open: {after}");

    // And the daemon still serves well-behaved clients.
    let pong = raw_request(&socket, "{\"cmd\":\"ping\"}");
    assert!(pong.contains("\"ok\":true"), "{pong}");

    let out = optiwise(&["shutdown", "--socket", sock]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(daemon.wait().unwrap().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_resource_budgets_answer_typed_overloaded() {
    let dir = scratch("overloaded");

    // Headroom no filesystem can satisfy: every submit is rejected at
    // admission, before any job work happens.
    let socket = dir.join("headroom.sock");
    let sock = socket.to_str().unwrap();
    let mut daemon = spawn_daemon(&[
        "--archive", dir.join("archive-a").to_str().unwrap(),
        "--socket", sock,
        "--min-headroom", &u64::MAX.to_string(),
    ]);
    wait_for_socket(&socket, &mut daemon);
    let response = raw_request(
        &socket,
        "{\"cmd\":\"submit\",\"workload\":\"loop_merge\",\"size\":\"test\"}",
    );
    assert!(response.contains("\"error\":\"overloaded\""), "{response}");
    assert!(response.contains("disk headroom"), "{response}");
    // Non-submit traffic is unaffected: the budget gates work, not health.
    let pong = raw_request(&socket, "{\"cmd\":\"ping\"}");
    assert!(pong.contains("\"ok\":true"), "{pong}");
    let out = optiwise(&["shutdown", "--socket", sock]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(daemon.wait().unwrap().code(), Some(0));

    // A queued-bytes budget smaller than any request line: same typed
    // rejection, different reason.
    let socket = dir.join("bytes.sock");
    let sock = socket.to_str().unwrap();
    let mut daemon = spawn_daemon(&[
        "--archive", dir.join("archive-b").to_str().unwrap(),
        "--socket", sock,
        "--max-queued-bytes", "1",
    ]);
    wait_for_socket(&socket, &mut daemon);
    let response = raw_request(
        &socket,
        "{\"cmd\":\"submit\",\"workload\":\"loop_merge\",\"size\":\"test\"}",
    );
    assert!(response.contains("\"error\":\"overloaded\""), "{response}");
    assert!(response.contains("request bytes"), "{response}");
    let out = optiwise(&["shutdown", "--socket", sock]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(daemon.wait().unwrap().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_submit_accepts_arch_and_overrides_and_rejects_bad_ones() {
    let dir = scratch("arch-submit");
    let root = dir.to_str().unwrap().to_string();
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();
    let mut daemon = spawn_daemon(&["--archive", &root, "--socket", sock, "--size", "test"]);
    wait_for_socket(&socket, &mut daemon);

    // A submission may carry its own machine: `--arch` restarts from the
    // named preset and `--set` tunes it, exactly like the offline CLI.
    let out = optiwise(&[
        "submit", "--socket", sock, "udiv_chain", "--seed", "3",
        "--arch", "neoverse", "--set", "rob_size=64",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"run\":1"), "{out:?}");
    // And one under the daemon's default (xeon) config.
    let out = optiwise(&["submit", "--socket", sock, "udiv_chain", "--seed", "3"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"run\":2"), "{out:?}");

    // Unknown or invalid configuration is refused at admission with a
    // typed error — never half-admitted, never a crashed job.
    for (request, expect) in [
        (
            "{\"cmd\":\"submit\",\"workload\":\"udiv_chain\",\"arch\":\"vax\"}",
            "unknown arch `vax`",
        ),
        (
            "{\"cmd\":\"submit\",\"workload\":\"udiv_chain\",\"arch\":7}",
            "`arch` must be a string",
        ),
        (
            "{\"cmd\":\"submit\",\"workload\":\"udiv_chain\",\"set\":\"rob_size=banana\"}",
            "bad `set` entry",
        ),
        (
            "{\"cmd\":\"submit\",\"workload\":\"udiv_chain\",\"set\":\"warp_drive=9\"}",
            "bad `set` entry",
        ),
        (
            "{\"cmd\":\"submit\",\"workload\":\"udiv_chain\",\"set\":\"rob_size=0\"}",
            "invalid config",
        ),
    ] {
        let response = raw_request(&socket, request);
        assert!(response.contains("\"ok\":false"), "{request} -> {response}");
        assert!(response.contains(expect), "{request} -> {response}");
    }
    // Rejections happened before admission: still exactly two runs.
    let status = raw_request(&socket, "{\"cmd\":\"status\"}");
    assert!(status.contains("\"runs\":2"), "{status}");

    let out = optiwise(&["shutdown", "--socket", sock]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(daemon.wait().unwrap().code(), Some(0));

    // The arch was stamped into the archived runs: the same workload under
    // two machines queries as a config change, not a regression.
    let out = optiwise(&["query", &root, "--last", "2", "--fail-on-regression"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("uarch configs differ"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
