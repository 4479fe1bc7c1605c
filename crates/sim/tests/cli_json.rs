//! Drives the real `stms-experiments` binary and checks that `--format json`
//! emits a document that round-trips through `serde_json`, and that
//! `--csv DIR` writes each figure's table.

use std::process::Command;
use stms_sim::{experiments, Campaign, ExperimentConfig};

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
        "table2,fig4,table2",
        "fig4",
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
    // Each repeated id renders once, at its first position.
    assert_eq!(items.len(), 2);
    assert_eq!(items[0].get("id").unwrap().as_str(), Some("table2"));
    assert_eq!(items[1].get("id").unwrap().as_str(), Some("fig4"));

    // Each figure carries its full grid and its notes.
    for item in items {
        let rows = item.get("rows").and_then(|v| v.as_array()).expect("rows");
        assert_eq!(rows.len(), 8);
        let notes = item.get("notes").and_then(|v| v.as_str()).expect("notes");
        assert!(!notes.is_empty());
    }
}

#[test]
fn unknown_figure_and_invalid_options_exit_with_usage_error() {
    // An unknown id is refused also beside an `all` that would otherwise
    // replace the whole selection, and a `--figures` value naming no id is
    // refused because an empty selection would mean every figure.
    for (args, message) in [
        (&["--figures", "fig99"][..], "unknown experiment"),
        (&["--quick", "--figures", "all,fig99"], "unknown experiment"),
        (&["--quick", "all", "fig99"], "unknown experiment"),
        (&["--quick", "--figures", ","], "names no experiment"),
        (&["--quick", "--figures", ""], "names no experiment"),
    ] {
        let out = run_cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }

    // A thread count beyond the bound is refused before any thread starts.
    let out = run_cli(&["--quick", "--threads", "1000000", "--figures", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--threads must be at most 1024"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");

    let out = run_cli(&["--warmup", "1.5", "--figures", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("warmup_fraction"));

    // The engine caps the warm-up at 0.95, so a larger fraction would
    // silently run as 0.95: it is refused, naming the bound.
    let out = run_cli(&["--quick", "--warmup", "0.96", "--figures", "table2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0.95"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    let out = run_cli(&["--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));

    // Removed flags fail loudly instead of being ignored, also beside an
    // otherwise valid run, which then renders nothing.
    for removed in [
        &["--replay-pipeline", "4"][..],
        &["--decode-threads", "2"],
        &["--trace-cache", "DIR"],
        &["--trace-codec", "v3"],
        &["--shard", "1/2"],
        &["--shard-out", "d"],
        &["--shard-balance", "cost"],
        &["--merge-shards", "d"],
        &["--retry-failed", "m.stms"],
        &["--calibrate-from", "d"],
        &["--stream-traces"],
        &["--result-cache", "DIR"],
        &["--cache-verify"],
        &["--quick", "--figures", "table2", "--stream-traces"],
        &["--quick", "--figures", "table1", "--cache-verify"],
    ] {
        let out = run_cli(removed);
        assert_eq!(out.status.code(), Some(2), "{removed:?}");
        assert!(out.stdout.is_empty(), "{removed:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{removed:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{removed:?}: {stderr}");
    }
}

#[test]
fn a_selection_without_jobs_prints_no_summary() {
    let out = run_cli(&["--quick", "--accesses", "4000", "--figures", "table1"]);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("run summary:"));
}

#[test]
fn text_mode_renders_selected_figures_only() {
    let once = run_cli(&["--quick", "--accesses", "8000", "--figures", "table1"]);
    assert!(once.status.success());
    let stdout = String::from_utf8_lossy(&once.stdout);
    assert!(stdout.contains("Table 1"));
    assert!(!stdout.contains("Figure 4"));

    // An id repeated through `--figures` and as a positional id renders
    // once: the output equals the single selection's.
    let repeated = run_cli(&[
        "--quick",
        "--accesses",
        "8000",
        "--figures",
        "table1,table1",
        "table1",
    ]);
    assert!(repeated.status.success());
    assert_eq!(repeated.stdout, once.stdout);
}

#[test]
fn csv_files_hold_the_in_process_tables() {
    let dir = std::env::temp_dir().join(format!("stms-cli-csv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out_dir = dir.join("out");
    let out_arg = out_dir.to_str().expect("utf-8 temp path");
    let args = ["--quick", "--accesses", "4000", "--figures", "table2,fig4"];
    let out = run_cli(&[&args[..], &["--csv", out_arg]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");

    let campaign = Campaign::with_threads(ExperimentConfig::quick().with_accesses(4_000), 2);
    let plans = ["table2", "fig4"]
        .iter()
        .map(|id| experiments::plan_for_id(id, campaign.cfg()).expect("known id"))
        .collect();
    for figure in campaign.run_figures(plans) {
        let figure = figure.expect("no job fails");
        let written = std::fs::read_to_string(out_dir.join(format!("{}.csv", figure.id)))
            .expect("the CLI wrote the figure's csv");
        assert_eq!(written, figure.table.to_csv(), "{}", figure.id);
    }

    // A directory under a regular file cannot be created.
    let file = out_dir.join("table2.csv").join("sub");
    let out = run_cli(&[
        "--quick",
        "--figures",
        "table1",
        "--csv",
        file.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot create csv output directory"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
