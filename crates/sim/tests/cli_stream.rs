//! Drives the real `stms-experiments` binary through streamed replay:
//! `--stream-traces` must render stdout byte-identical to the materialized
//! path, and the removed shard-retry flag must be refused.

use std::process::Command;

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stms-experiments"))
        .args(args)
        .output()
        .expect("spawn stms-experiments")
}

const COMMON: &[&str] = &[
    "--quick",
    "--accesses",
    "4000",
    "--threads",
    "2",
    "--figures",
    "table2,fig6-left",
];

fn with(common: &[&str], extra: &[&str]) -> Vec<&'static str> {
    // Leak is fine in a test binary; keeps the call sites readable.
    common
        .iter()
        .chain(extra.iter())
        .map(|s| Box::leak(s.to_string().into_boxed_str()) as &'static str)
        .collect()
}

#[test]
fn streamed_replay_renders_byte_identical_stdout() {
    let direct = run_cli(COMMON);
    assert!(direct.status.success());
    assert!(!direct.stdout.is_empty());

    // Every job streams its own generator.
    let streamed = run_cli(&with(COMMON, &["--stream-traces"]));
    let stderr = String::from_utf8_lossy(&streamed.stderr);
    assert!(streamed.status.success(), "stderr: {stderr}");
    assert_eq!(
        streamed.stdout, direct.stdout,
        "streamed stdout must be byte-identical to the materialized path"
    );
    assert!(stderr.contains("streamed replay:"), "{stderr}");
}

#[test]
fn retry_failed_usage_errors() {
    // `--retry-failed` is gone: it is a usage error on its own and beside
    // an otherwise valid run, which then renders nothing.
    for args in [
        &["--retry-failed", "x.stms"][..],
        &["--quick", "--figures", "table2", "--retry-failed", "x.stms"][..],
    ] {
        let out = run_cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}
