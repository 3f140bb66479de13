//! End-to-end checks of the `sllt` binary's design-name handling.

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
