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
