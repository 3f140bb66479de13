//! End-to-end checks of the `sllt` binary: design-name handling, run
//! plumbing, and refusal of inputs the evaluator cannot take.

use std::process::Command;

#[test]
fn run_accepts_synthetic_grid_designs() {
    // `grid<N>` names resolve through the same resolver the bench bins
    // and `slltd` use, so a name a job accepts also runs here.
    let out = Command::new(env!("CARGO_BIN_EXE_sllt"))
        .args(["run", "--design", "grid48"])
        .output()
        .expect("spawn sllt");
    assert!(
        out.status.success(),
        "sllt run --design grid48 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("grid48 / ours"));
}

#[test]
fn run_names_unknown_designs() {
    let out = Command::new(env!("CARGO_BIN_EXE_sllt"))
        .args(["run", "--design", "nonesuch"])
        .output()
        .expect("spawn sllt");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown design \"nonesuch\""));
}

#[test]
fn run_traces_and_checkpoints_in_one_run() {
    // `--trace` and `--checkpoint` go through the same run context: the
    // run writes both its Chrome trace and its level journal.
    let dir = std::env::temp_dir().join(format!("sllt_cli_trace_ckpt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_sllt"))
        .args([
            "run",
            "--design",
            "grid48",
            "--trace",
            "--checkpoint",
            "j.jsonl",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn sllt");
    assert!(
        out.status.success(),
        "sllt run --trace --checkpoint failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("results/trace_grid48.json").is_file());
    let journal = std::fs::metadata(dir.join("j.jsonl")).expect("checkpoint journal written");
    assert!(journal.len() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_and_ocv_refuse_bad_input_with_an_error() {
    // Inputs the evaluator would panic on must come back as a one-line
    // `error: …` and exit status 1, never a panic (status 101).
    let dir = std::env::temp_dir().join(format!("sllt_cli_bad_input_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, body) in [
        (
            "bad_cell.sllt",
            "node 1 buffer 10 0 0 10 cell 99\nnode 2 sink 20 0 1 10 cap 0.8 idx 0\n",
        ),
        ("sinkless.sllt", ""),
        ("ok.sllt", "node 1 sink 20 0 0 20 cap 0.8 idx 0\n"),
    ] {
        std::fs::write(dir.join(name), format!("sllt-tree v1\nsource 0 0\n{body}")).unwrap();
    }
    let sllt = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_sllt"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn sllt")
    };
    for (args, needle) in [
        (&["eval", "--tree", "bad_cell.sllt"][..], "cell 99"),
        (&["ocv", "--tree", "bad_cell.sllt"], "cell 99"),
        (&["eval", "--tree", "sinkless.sllt"], "no sinks"),
        (&["ocv", "--tree", "sinkless.sllt"], "no sinks"),
        (
            &["ocv", "--tree", "ok.sllt", "--derate", "-0.1"],
            "--derate",
        ),
        (&["ocv", "--tree", "ok.sllt", "--derate", "nan"], "--derate"),
        (&["ocv", "--tree", "ok.sllt", "--derate", "inf"], "--derate"),
    ] {
        let out = sllt(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{args:?}: {stderr}"
        );
    }
    // The well-formed tree still evaluates.
    assert!(sllt(&["eval", "--tree", "ok.sllt"]).status.success());
    assert!(sllt(&["ocv", "--tree", "ok.sllt", "--trials", "3"])
        .status
        .success());
    std::fs::remove_dir_all(&dir).ok();
}
