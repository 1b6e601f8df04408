//! Integration gates for the lint itself.
//!
//! Two regressions this pins down: the fixture corpus must keep
//! matching its `//~` expectation markers exactly (a rule change that
//! silently stops firing fails here, not in review), and the workspace
//! at HEAD must stay wormlint-clean — new panics, unjustified atomics,
//! or bare casts in codec paths break `cargo test`, not just CI.

use std::path::Path;

use wormlint::{atomics_to_json, diags_to_json, find_workspace_root, run_workspace};

fn repo_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the wormlint crate")
}

#[test]
fn fixture_corpus_matches_markers() {
    if let Err(details) = wormlint::selftest::run() {
        panic!("fixture corpus diverged from expectation markers:\n{details}");
    }
}

#[test]
fn workspace_is_clean_at_head() {
    let report = run_workspace(&repo_root());
    let rendered: Vec<String> = report.diags.iter().map(ToString::to_string).collect();
    assert!(
        report.clean(),
        "wormlint violations at HEAD:\n{}",
        rendered.join("\n")
    );
    // Guard against the scanner silently finding nothing (a path bug
    // would make `clean()` vacuously true).
    assert!(
        report.files_linted > 50,
        "suspiciously few files linted: {}",
        report.files_linted
    );
    assert!(
        !report.atomic_sites.is_empty(),
        "atomics inventory came back empty"
    );
}

#[test]
fn every_atomic_site_is_justified_at_head() {
    let report = run_workspace(&repo_root());
    let unjustified: Vec<String> = report
        .atomic_sites
        .iter()
        .filter(|s| s.justification.is_none())
        .map(|s| format!("{}:{} ({})", s.file, s.line, s.ordering))
        .collect();
    assert!(
        unjustified.is_empty(),
        "atomic sites without `// ordering:` justifications:\n{}",
        unjustified.join("\n")
    );
}

#[test]
fn json_documents_carry_schema_versions() {
    let report = run_workspace(&repo_root());
    let diags = diags_to_json(&report);
    assert!(diags.contains("\"version\": \"wormlint.diag.v2\""));
    assert!(diags.contains("\"clean\": true"));
    // v2's per-diagnostic fields are part of the documented schema;
    // CI annotation tooling keys on them.
    assert!(diags.contains("\"files_linted\""));
    let audit = atomics_to_json(&report);
    assert!(audit.contains("\"version\": \"wormlint.atomics.v1\""));
    assert!(audit.contains("\"total_sites\""));
}
