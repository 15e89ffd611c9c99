//! The stored reference report is the program's output, and the gate that
//! compares against it counts a corrupted reference as a failure.

use bsg_perfbench::metrics::Outcome;
use bsg_perfbench::report::{check_report, REFERENCE};
use std::process::Command;

#[test]
fn the_reference_matches_a_fresh_render_and_a_corrupted_one_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_bsg-perfbench"))
        .args(["--child", "report"])
        .env("BSG_ARTIFACT_DIR", "off")
        .output()
        .expect("report child runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rendered = String::from_utf8(out.stdout).expect("report is UTF-8");

    let mut outcome = Outcome::default();
    outcome.check(check_report(&rendered, REFERENCE));
    assert_eq!(outcome.failed, 0, "{:?}", outcome.notes);

    let mut corrupted = REFERENCE.to_string();
    let at = corrupted.find("Figure 11").expect("fig11 in the reference");
    corrupted.replace_range(at..at + 6, "FIGURE");
    outcome.check(check_report(&rendered, &corrupted));
    assert_eq!(outcome.failed, 1);
    assert!(outcome.failed_share() > 0.0);
    assert!(outcome.notes[0].contains("line"), "{:?}", outcome.notes);
}
