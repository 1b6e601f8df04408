//! CLI driver. See `wormlint --help`.

use std::path::PathBuf;
use std::process::ExitCode;

use wormlint::{atomics_to_json, diags_to_json, find_workspace_root, run_workspace};

const USAGE: &str = "\
wormlint — WORM-invariant static analysis

USAGE:
    wormlint --workspace [--json] [--audit-out PATH] [--root PATH]
    wormlint --self-test

OPTIONS:
    --workspace             Lint every workspace crate (L0-L4, L6, L8)
    --json                  Emit diagnostics as wormlint.diag.v2 JSON
    --audit-out PATH        Also write the wormlint.atomics.v1 inventory
    --root PATH             Workspace root (default: discovered from cwd)
    --self-test             Run the embedded fixture corpus and exit

EXIT CODES:
    0  clean (or self-test passed)
    1  violations found (or self-test failed)
    2  usage or I/O error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut json = false;
    let mut self_test = false;
    let mut audit_out: Option<PathBuf> = None;
    let mut root_arg: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--self-test" => self_test = true,
            "--audit-out" | "--root" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("missing value for {}\n\n{USAGE}", args[i]);
                    return ExitCode::from(2);
                };
                match args[i].as_str() {
                    "--audit-out" => audit_out = Some(PathBuf::from(v)),
                    _ => root_arg = Some(PathBuf::from(v)),
                }
                i += 1;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    if self_test {
        return match wormlint::selftest::run() {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(details) => {
                eprintln!("{details}");
                ExitCode::FAILURE
            }
        };
    }

    if !workspace {
        eprintln!("nothing to do: pass --workspace or --self-test\n\n{USAGE}");
        return ExitCode::from(2);
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot determine working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match root_arg.or_else(|| find_workspace_root(&cwd)) {
        Some(r) => r,
        None => {
            eprintln!("no workspace root found above {}", cwd.display());
            return ExitCode::from(2);
        }
    };

    let report = run_workspace(&root);

    if let Some(path) = audit_out {
        let doc = atomics_to_json(&report);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if !json {
            println!(
                "atomics audit: {} sites ({} justified) -> {}",
                report.atomic_sites.len(),
                report
                    .atomic_sites
                    .iter()
                    .filter(|s| s.justification.is_some())
                    .count(),
                path.display()
            );
        }
    }

    if json {
        print!("{}", diags_to_json(&report));
    } else {
        for d in &report.diags {
            println!("{d}");
        }
        println!(
            "wormlint: {} files, {} atomic sites, {} violation(s)",
            report.files_linted,
            report.atomic_sites.len(),
            report.diags.len()
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
