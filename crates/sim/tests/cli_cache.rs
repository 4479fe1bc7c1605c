//! Drives the real `stms-experiments` binary twice against one cache
//! directory and checks the acceptance contract of the persistent result
//! cache: the warm run's stdout is byte-identical to the cold run's, all
//! replay (and so all trace generation) is skipped, and the stderr run
//! summary says so.

use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stms-cli-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stms-experiments"))
        .args(args)
        .output()
        .expect("spawn stms-experiments")
}

#[test]
fn warm_full_run_is_byte_identical_and_skips_all_work() {
    let dir = temp_dir("full");
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let args = [
        "--quick",
        "--accesses",
        "4000",
        "--threads",
        "2",
        "--figures",
        "all",
        "--result-cache",
        dir_str,
        "--cache-verify",
    ];

    let cold = run_cli(&args);
    assert!(
        cold.status.success(),
        "cold stderr: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_summary = String::from_utf8_lossy(&cold.stderr);
    assert!(
        cold_summary.contains("run summary:"),
        "stderr must report cache usage: {cold_summary}"
    );
    assert!(
        !cold_summary.contains("replayed 0,"),
        "the cold run replays: {cold_summary}"
    );

    let warm = run_cli(&args);
    assert!(warm.status.success());
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&warm.stdout),
        "warm stdout must be byte-identical to cold stdout"
    );
    let warm_summary = String::from_utf8_lossy(&warm.stderr);
    // Only executing jobs request traces, so no replay means no trace
    // generation either.
    assert!(
        warm_summary.contains("replayed 0,"),
        "warm run must skip all replay: {warm_summary}"
    );
    assert!(
        warm_summary.contains("result cache:") && warm_summary.contains("0 misses"),
        "warm run must serve every job from the result cache: {warm_summary}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_flags_validate_their_arguments() {
    // A missing value is a usage error, not a panic.
    let out = run_cli(&["--result-cache"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--result-cache requires a value"));

    // An unopenable directory is a clean error.
    let out = run_cli(&[
        "--figures",
        "table1",
        "--result-cache",
        "/dev/null/not-a-dir",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open cache directory"));
}

#[test]
fn runs_without_cache_flags_print_no_summary() {
    let out = run_cli(&["--quick", "--accesses", "4000", "--figures", "table1"]);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("run summary:"));
}
