//! Fixture-based self-test: each fixture under `tests/fixtures/`
//! carries `//~ <rule>` expectation markers on its violating lines;
//! the analyzer must produce exactly those diagnostics and no others.
//! Runs from the embedded copies, so `wormlint --self-test` works from
//! any directory (and in CI before the test harness).
//!
//! Every fixture stands in for a workspace file, and runs the pipeline
//! that file would see: the rule scope its path gets, every rule, and
//! the allow-staleness check afterwards.

use std::time::Instant;

use crate::analysis::SourceFile;
use crate::rules::lint_file;
use crate::scope_for;

/// A serving-crate file: L1, L6 and the universal rules apply.
const SERVING: &str = "crates/strongworm/src/fixture.rs";
/// A serving codec file: additionally L1 `index`, L4 and L8.
const CODEC: &str = "crates/wormnet/src/codec.rs";
/// The crypto core, a serving crate like any other.
const CRYPTO: &str = "crates/wormcrypt/src/rsa.rs";

/// Hard wall-clock budget for the whole corpus: the self-test gates
/// CI and pre-commit runs, so it must stay interactive.
const BUDGET_SECS: u64 = 5;

/// The embedded fixture corpus: (name, the workspace path it stands
/// for, source).
pub const FIXTURES: &[(&str, &str, &str)] = &[
    (
        "l0_bad.rs",
        SERVING,
        include_str!("../tests/fixtures/l0_bad.rs"),
    ),
    (
        "l1_bad.rs",
        SERVING,
        include_str!("../tests/fixtures/l1_bad.rs"),
    ),
    (
        "l1_good.rs",
        SERVING,
        include_str!("../tests/fixtures/l1_good.rs"),
    ),
    (
        "l1_crypto_bad.rs",
        CRYPTO,
        include_str!("../tests/fixtures/l1_crypto_bad.rs"),
    ),
    (
        "l1_index_bad.rs",
        CODEC,
        include_str!("../tests/fixtures/l1_index_bad.rs"),
    ),
    (
        "l1_index_good.rs",
        CODEC,
        include_str!("../tests/fixtures/l1_index_good.rs"),
    ),
    (
        "l2_bad.rs",
        SERVING,
        include_str!("../tests/fixtures/l2_bad.rs"),
    ),
    (
        "l2_good.rs",
        SERVING,
        include_str!("../tests/fixtures/l2_good.rs"),
    ),
    (
        "l3_bad.rs",
        SERVING,
        include_str!("../tests/fixtures/l3_bad.rs"),
    ),
    (
        "l3_good.rs",
        SERVING,
        include_str!("../tests/fixtures/l3_good.rs"),
    ),
    (
        "l4_bad.rs",
        CODEC,
        include_str!("../tests/fixtures/l4_bad.rs"),
    ),
    (
        "l4_good.rs",
        CODEC,
        include_str!("../tests/fixtures/l4_good.rs"),
    ),
    (
        "l6_bad.rs",
        SERVING,
        include_str!("../tests/fixtures/l6_bad.rs"),
    ),
    (
        "l6_good.rs",
        SERVING,
        include_str!("../tests/fixtures/l6_good.rs"),
    ),
    (
        "l8_bad.rs",
        CODEC,
        include_str!("../tests/fixtures/l8_bad.rs"),
    ),
    (
        "l8_good.rs",
        CODEC,
        include_str!("../tests/fixtures/l8_good.rs"),
    ),
];

/// Every rule name a marker may reference; anything else in an
/// expectation marker is a fixture authoring error.
const MARKER_RULES: &[&str] = &[
    "panic",
    "index",
    "ordering",
    "codec-pair",
    "codec-test",
    "opcode",
    "cast",
    "allow-syntax",
    "allow-unused",
    "blocking",
    "count-bomb",
];

/// Expected diagnostics parsed from `//~ rule [rule ...]` markers.
fn expectations(src: &str) -> Result<Vec<(String, u32)>, String> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(idx) = line.find("//~") {
            for rule in line[idx + 3..].split_whitespace() {
                if !MARKER_RULES.contains(&rule) {
                    return Err(format!("line {}: unknown marker rule `{rule}`", i + 1));
                }
                out.push((rule.to_string(), i as u32 + 1));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs one fixture through the passes its stand-in path gets.
fn check_fixture(name: &str, path: &str, src: &str) -> Vec<(String, u32)> {
    let f = SourceFile::parse(name, src.to_string());
    let report = lint_file(&f, scope_for(path));
    let mut got: Vec<(String, u32)> = report
        .diags
        .iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect();
    got.sort();
    got
}

/// Runs the whole corpus. `Ok(summary)` when every fixture matches its
/// markers exactly; `Err(details)` listing every mismatch otherwise.
pub fn run() -> Result<String, String> {
    let started = Instant::now();
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for (name, path, src) in FIXTURES {
        let got = check_fixture(name, path, src);
        let want = match expectations(src) {
            Ok(w) => w,
            Err(e) => {
                failures.push(format!("{name}: {e}"));
                continue;
            }
        };
        if got != want {
            for (rule, line) in want.iter().filter(|w| !got.contains(w)) {
                failures.push(format!(
                    "{name}:{line}: expected `{rule}` diagnostic, got none"
                ));
            }
            for (rule, line) in got.iter().filter(|g| !want.contains(g)) {
                failures.push(format!("{name}:{line}: unexpected `{rule}` diagnostic"));
            }
        }
        checked += 1;
    }
    let elapsed = started.elapsed();
    if elapsed.as_secs() >= BUDGET_SECS {
        failures.push(format!(
            "self-test exceeded its {BUDGET_SECS}s wall-clock budget: {elapsed:.2?}"
        ));
    }
    if failures.is_empty() {
        Ok(format!(
            "self-test ok: {checked} fixtures, {} expectations matched exactly in {elapsed:.2?}",
            FIXTURES
                .iter()
                .map(|(_, _, s)| expectations(s).map_or(0, |e| e.len()))
                .sum::<usize>()
        ))
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn corpus_matches_markers() {
        if let Err(e) = super::run() {
            panic!("wormlint self-test failed:\n{e}");
        }
    }
}
