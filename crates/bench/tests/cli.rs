//! Every bench binary rejects a malformed command line with exit status 2 and
//! names the offending flag, before it runs an experiment or binds a socket.

use std::process::Command;

fn rejects(binary: &str, args: &[&str], flag: &str) {
    let out = Command::new(binary)
        .args(args)
        .output()
        .expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{binary} {args:?}: {stderr}");
    assert!(
        stderr.contains(flag),
        "{binary} {args:?} must name {flag}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{binary} {args:?} ran anyway");
}

#[test]
fn a_typo_is_an_unknown_flag() {
    rejects(env!("CARGO_BIN_EXE_table1"), &["--quik"], "--quik");
}

#[test]
fn an_unsupported_lane_width_is_rejected() {
    rejects(
        env!("CARGO_BIN_EXE_fig_throughput"),
        &["--lanes", "2"],
        "--lanes",
    );
}

#[test]
fn a_malformed_server_knob_is_rejected_not_defaulted() {
    let serve = env!("CARGO_BIN_EXE_fsc_serve");
    rejects(serve, &["--max-inflight", "x"], "--max-inflight");
    rejects(serve, &["--group-commit", "x"], "--group-commit");
    rejects(
        env!("CARGO_BIN_EXE_fsc_loadgen"),
        &["--batches", "1O"],
        "--batches",
    );
}

#[test]
fn zero_threads_is_rejected() {
    rejects(
        env!("CARGO_BIN_EXE_run_all"),
        &["--threads", "0"],
        "--threads",
    );
}
