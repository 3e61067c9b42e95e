//! The report binary rejects section names it does not know, so a
//! mistyped smoke run fails instead of printing an empty report.

use std::process::Command;

#[test]
fn unknown_section_exits_2_and_lists_sections() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("no-such-section")
        .output()
        .expect("report binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no-such-section"), "stderr: {err}");
    for name in ["all", "table1", "serve", "gray", "caps"] {
        assert!(err.contains(name), "`{name}` missing from: {err}");
    }
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
