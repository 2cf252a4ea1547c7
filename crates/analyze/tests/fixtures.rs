//! Seeded-violation fixture corpus.
//!
//! Each directory under `tests/fixtures/<case>/` holds a miniature
//! workspace in `tree/` plus an `expect.txt`:
//!
//! * a plain line is a required substring of the rendered diagnostics
//!   (conventionally the `file:line: [rule]` prefix);
//! * a line starting with `!` is a forbidden substring (false-positive
//!   guard);
//! * `#` lines and blanks are comments;
//! * a file with **no** required lines asserts the tree is
//!   diagnostic-free.
//!
//! The second test pins the corpus contract: every rule the analyzer
//! can emit has at least one fixture seeded to fail with it.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Every rule id `csm-analyze` can emit.
const ALL_RULES: [&str; 14] = [
    "ordering-allowlist",
    "seqcst-denied",
    "seqlock-protocol",
    "thread-spawn-confined",
    "std-net-confined",
    "subpattern-key-confined",
    "kernel-hot-loop",
    "flight-hot-path",
    "profile-hot-path",
    "trace-local-only",
    "unwrap-denied",
    "forbid-unsafe-missing",
    "metric-drift",
    "kind-exhaustive",
];

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn cases() -> Vec<PathBuf> {
    let mut cases: Vec<PathBuf> = fs::read_dir(fixtures_root())
        .expect("tests/fixtures must exist")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.is_dir())
        .collect();
    cases.sort();
    cases
}

fn run_case(case: &Path) {
    let name = case.file_name().unwrap().to_string_lossy().into_owned();
    let expect = fs::read_to_string(case.join("expect.txt"))
        .unwrap_or_else(|e| panic!("{name}: missing expect.txt: {e}"));
    let analysis = csm_analyze::analyze(&case.join("tree"))
        .unwrap_or_else(|e| panic!("{name}: analyze failed: {e}"));
    let all = analysis
        .diags
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n");

    let mut required = 0usize;
    for line in expect.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(forbidden) = line.strip_prefix('!') {
            assert!(
                !all.contains(forbidden),
                "{name}: forbidden substring `{forbidden}` matched; diagnostics:\n{all}"
            );
        } else {
            required += 1;
            assert!(
                all.contains(line),
                "{name}: expected `{line}` in diagnostics:\n{all}"
            );
        }
    }
    if required == 0 {
        assert!(
            analysis.diags.is_empty(),
            "{name}: expected a diagnostic-free tree, got:\n{all}"
        );
    }
}

#[test]
fn every_fixture_matches_its_expectations() {
    let cases = cases();
    assert!(
        cases.len() >= 14,
        "fixture corpus shrank to {} cases",
        cases.len()
    );
    for case in &cases {
        run_case(case);
    }
}

#[test]
fn every_rule_has_a_seeded_fixture() {
    let mut seeded: BTreeSet<&str> = BTreeSet::new();
    for case in cases() {
        let Ok(expect) = fs::read_to_string(case.join("expect.txt")) else {
            continue;
        };
        for line in expect.lines() {
            let line = line.trim();
            if line.starts_with('!') {
                continue;
            }
            for rule in ALL_RULES {
                if line.contains(&format!("[{rule}]")) {
                    seeded.insert(rule);
                }
            }
        }
    }
    for rule in ALL_RULES {
        assert!(
            seeded.contains(rule),
            "no seeded fixture fails with [{rule}] — every rule needs one"
        );
    }
}
