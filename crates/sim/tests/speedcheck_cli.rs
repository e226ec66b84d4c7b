//! `speedcheck`'s command-line contract: unknown flags and bad values are
//! usage errors (exit 2) that run no simulation, and the regression gate
//! skips a missing previous report but refuses a malformed one.

use std::path::{Path, PathBuf};
use std::process::Command;

const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_speedcheck.json");

fn speedcheck(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_speedcheck"))
        .args(args)
        .output()
        .expect("speedcheck runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn scratch(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("etpp-speedcheck-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

fn s(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn unknown_flags_and_bad_values_exit_2_with_usage() {
    for args in [
        &["--help"][..],
        &["--jobs"],
        &["--jobs", "x"],
        &["--json"],
        &["--compare", "--smoke"],
        &["--compare-only", "prev.json"],
        &["stray"],
    ] {
        let (code, stderr) = speedcheck(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("usage: speedcheck"), "{args:?}: {stderr}");
    }
}

#[test]
fn compare_only_skips_missing_and_rejects_malformed_previous_reports() {
    let committed = std::fs::read_to_string(COMMITTED).expect("committed report");
    let garbage = scratch("garbage.json", "not a speedcheck report\n");
    let truncated = scratch("truncated.json", &committed[..2000]);
    let missing = garbage.with_file_name("absent.json");

    let (code, stderr) = speedcheck(&["--compare-only", COMMITTED, COMMITTED]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("32 cells compared"), "{stderr}");

    let (code, stderr) = speedcheck(&["--compare-only", s(&missing), COMMITTED]);
    assert_eq!(
        code, 0,
        "a first run has nothing to compare against: {stderr}"
    );

    for bad in [&garbage, &truncated] {
        let (code, stderr) = speedcheck(&["--compare-only", s(bad), COMMITTED]);
        assert_eq!(code, 2, "{stderr}");
        assert!(stderr.contains("unusable report"), "{stderr}");
    }
    let (code, stderr) = speedcheck(&["--compare-only", COMMITTED, s(&truncated)]);
    assert_eq!(
        code, 2,
        "a malformed current report is an error too: {stderr}"
    );
    let _ = std::fs::remove_dir_all(garbage.parent().unwrap());
}
