//! Drives the real `stms-experiments` binary through streamed replay and
//! the shard-retry lifecycle: `--stream-traces` must render stdout
//! byte-identical to the materialized path, and `--retry-failed` must heal
//! a partial shard manifest in place by rerunning only the missing jobs.

use std::path::PathBuf;
use std::process::Command;
use stms_types::ShardManifest;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stms-cli-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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
fn retry_failed_heals_a_partial_manifest_in_place() {
    let dir = temp_dir("retry");
    let dir_str = dir.to_str().expect("utf-8 temp path").to_string();

    // Reference output and a complete 1-of-2 shard.
    let direct = run_cli(COMMON);
    assert!(direct.status.success());
    for shard in ["1/2", "2/2"] {
        let out = run_cli(&with(COMMON, &["--shard", shard, "--shard-out", &dir_str]));
        assert!(out.status.success());
    }

    // Amputate two entries from shard 1's manifest, as if two of its jobs
    // had failed and exit code 3 been reported.
    let path = dir.join("shard-1-of-2.stms");
    let mut manifest = ShardManifest::open(&std::fs::read(&path).unwrap()).unwrap();
    let before = manifest.entries.len();
    assert!(before >= 2, "shard 1 owns at least two jobs");
    manifest.entries.drain(..2);
    std::fs::write(&path, manifest.seal()).unwrap();

    // The incomplete set must not merge.
    let rejected = run_cli(&with(COMMON, &["--merge-shards", &dir_str]));
    assert_eq!(rejected.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&rejected.stderr).contains("incomplete shard coverage"));

    // Retry reruns exactly the missing jobs and seals in place.
    let path_str = path.to_str().unwrap().to_string();
    let retry = run_cli(&with(COMMON, &["--retry-failed", &path_str]));
    let stderr = String::from_utf8_lossy(&retry.stderr);
    assert!(retry.status.success(), "stderr: {stderr}");
    assert!(retry.stdout.is_empty(), "retry mode renders nothing");
    assert!(
        stderr.contains("retried shard 1/2: 2 missing job(s) rerun"),
        "{stderr}"
    );
    assert!(stderr.contains("sealed "), "{stderr}");
    assert!(stderr.contains("run summary:"), "{stderr}");
    let healed = ShardManifest::open(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(healed.entries.len(), before);

    // The healed set merges byte-identical to the direct run.
    let merged = run_cli(&with(COMMON, &["--merge-shards", &dir_str]));
    assert!(merged.status.success());
    assert_eq!(merged.stdout, direct.stdout);

    // Retrying the now-complete manifest reruns nothing.
    let idle = run_cli(&with(COMMON, &["--retry-failed", &path_str]));
    assert!(idle.status.success());
    assert!(
        String::from_utf8_lossy(&idle.stderr).contains("0 missing job(s) rerun"),
        "idle retry is a no-op"
    );

    // A *renamed* partial still heals in place: the sealed manifest lands
    // under its conventional name and the stale file is removed, so the
    // directory stays mergeable (no DuplicateShard).
    let renamed = dir.join("shard-1-renamed.stms");
    std::fs::rename(&path, &renamed).unwrap();
    let renamed_str = renamed.to_str().unwrap().to_string();
    let healed = run_cli(&with(COMMON, &["--retry-failed", &renamed_str]));
    assert!(healed.status.success());
    assert!(path.is_file(), "sealed under the conventional name");
    assert!(!renamed.is_file(), "stale renamed partial removed");
    let merged = run_cli(&with(COMMON, &["--merge-shards", &dir_str]));
    assert!(merged.status.success());
    assert_eq!(merged.stdout, direct.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retry_failed_usage_errors() {
    // Mutually exclusive with the other distributed modes.
    let out = run_cli(&[
        "--retry-failed",
        "x.stms",
        "--shard",
        "1/2",
        "--shard-out",
        "s",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let out = run_cli(&["--retry-failed", "x.stms", "--merge-shards", "d"]);
    assert_eq!(out.status.code(), Some(2));
    // Nothing renders, so render-output flags are refused.
    let out = run_cli(&["--retry-failed", "x.stms", "--format", "json"]);
    assert_eq!(out.status.code(), Some(2));
    // A missing manifest is a runtime failure, not a usage error.
    let out = run_cli(&[
        "--quick",
        "--figures",
        "table2",
        "--retry-failed",
        "absent.stms",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
