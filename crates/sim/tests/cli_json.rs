//! Drives the real `stms-experiments` binary and checks that `--format json`
//! emits a document that round-trips through `serde_json`.

use std::process::Command;
use stms_sim::FigureResult;

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stms-experiments"))
        .args(args)
        .output()
        .expect("spawn stms-experiments")
}

#[test]
fn json_output_round_trips_through_serde_json() {
    let out = run_cli(&[
        "--quick",
        "--accesses",
        "8000",
        "--threads",
        "2",
        "--figures",
        "table2,fig4",
        "--format",
        "json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let doc = serde_json::from_str(&stdout).expect("stdout is one valid JSON document");
    let items = doc.as_array().expect("top level is an array");
    assert_eq!(items.len(), 2);
    assert_eq!(items[0].get("id").unwrap().as_str(), Some("table2"));
    assert_eq!(items[1].get("id").unwrap().as_str(), Some("fig4"));

    // Each figure deserializes back into a FigureResult with the full grid.
    for item in items {
        let figure = FigureResult::from_json(item).expect("complete figure object");
        assert_eq!(figure.table.row_count(), 8);
        assert!(!figure.notes.is_empty());
    }
}

#[test]
fn unknown_figure_and_invalid_options_exit_with_usage_error() {
    let out = run_cli(&["--figures", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));

    let out = run_cli(&["--warmup", "1.5", "--figures", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("warmup_fraction"));

    let out = run_cli(&["--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));

    // Verification without a cache to verify is refused, not ignored.
    let out = run_cli(&["--quick", "--figures", "table1", "--cache-verify"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cache-verify"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    // Removed flags fail loudly instead of being ignored.
    for removed in [
        ["--replay-pipeline", "4"],
        ["--decode-threads", "2"],
        ["--trace-cache", "DIR"],
        ["--trace-codec", "v3"],
        ["--shard", "1/2"],
        ["--shard-out", "d"],
        ["--shard-balance", "cost"],
        ["--merge-shards", "d"],
        ["--retry-failed", "m.stms"],
        ["--calibrate-from", "d"],
    ] {
        let out = run_cli(&removed);
        assert_eq!(out.status.code(), Some(2), "{removed:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{removed:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{removed:?}: {stderr}");
    }
}

#[test]
fn text_mode_renders_selected_figures_only() {
    let out = run_cli(&["--quick", "--accesses", "8000", "--figures", "table1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1"));
    assert!(!stdout.contains("Figure 4"));
}
