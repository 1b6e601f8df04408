//! Fixture-based self-test: each fixture under `tests/fixtures/`
//! carries `//~ <rule>` expectation markers on its violating lines;
//! the analyzer must produce exactly those diagnostics and no others.
//! Runs from the embedded copies, so `wormlint --self-test` works from
//! any directory (and in CI before the test harness).
//!
//! Every fixture runs the *full* pipeline a workspace file would see:
//! the per-file rules (L0-L4), the interprocedural pass (L5-L8) over a
//! single-file call graph, and the allow-staleness check afterwards —
//! so fixtures can pin down cross-function findings and escape-hatch
//! hygiene alike.

use std::time::Instant;

use crate::analysis::SourceFile;
use crate::graph::{self, GraphFile};
use crate::interp;
use crate::rules::{lint_file, unused_allows, Scope};

const SERVING: Scope = Scope {
    serving: true,
    codec_path: false,
};
const CODEC: Scope = Scope {
    serving: true,
    codec_path: true,
};

/// Hard wall-clock budget for the whole corpus: the self-test gates
/// CI and pre-commit runs, so it must stay interactive.
const BUDGET_SECS: u64 = 5;

/// The embedded fixture corpus: (name, scope, source).
pub const FIXTURES: &[(&str, Scope, &str)] = &[
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
        "l5_nested_bad.rs",
        SERVING,
        include_str!("../tests/fixtures/l5_nested_bad.rs"),
    ),
    (
        "l5_cycle_bad.rs",
        SERVING,
        include_str!("../tests/fixtures/l5_cycle_bad.rs"),
    ),
    (
        "l5_good.rs",
        SERVING,
        include_str!("../tests/fixtures/l5_good.rs"),
    ),
    (
        "l6_hold_bad.rs",
        SERVING,
        include_str!("../tests/fixtures/l6_hold_bad.rs"),
    ),
    (
        "l6_reactor_bad.rs",
        SERVING,
        include_str!("../tests/fixtures/l6_reactor_bad.rs"),
    ),
    (
        "l6_good.rs",
        SERVING,
        include_str!("../tests/fixtures/l6_good.rs"),
    ),
    (
        "l7_panic_bad.rs",
        SERVING,
        include_str!("../tests/fixtures/l7_panic_bad.rs"),
    ),
    (
        "l7_conc_good.rs",
        SERVING,
        include_str!("../tests/fixtures/l7_conc_good.rs"),
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
    "lock-order",
    "lock-cycle",
    "hold-blocking",
    "reactor-blocking",
    "panic-reach",
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

/// Runs one fixture through the same passes a workspace file gets:
/// per-file rules, the single-file interprocedural graph, and the
/// allow-staleness check over the combined consumption set.
fn check_fixture(name: &str, scope: Scope, src: &str) -> Vec<(String, u32)> {
    let f = SourceFile::parse(name, src.to_string());
    let mut report = lint_file(&f, scope);
    let gr = graph::build(vec![GraphFile {
        sf: &f,
        krate: "fixture".to_string(),
        serving: scope.serving,
        codec: scope.codec_path,
        orig: 0,
    }]);
    let iout = interp::check(&gr);
    report
        .used_allows
        .extend(iout.used_allows[0].iter().copied());
    let mut diags = report.diags;
    diags.extend(iout.diags);
    diags.extend(unused_allows(&f, &report.used_allows));
    let mut got: Vec<(String, u32)> = diags.iter().map(|d| (d.rule.to_string(), d.line)).collect();
    got.sort();
    got
}

/// Runs the whole corpus. `Ok(summary)` when every fixture matches its
/// markers exactly; `Err(details)` listing every mismatch otherwise.
pub fn run() -> Result<String, String> {
    let started = Instant::now();
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for (name, scope, src) in FIXTURES {
        let got = check_fixture(name, *scope, src);
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
