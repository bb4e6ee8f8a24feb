//! Repo task driver, `cargo xtask` style: plain Rust instead of shell
//! for anything that must behave identically on every machine.
//!
//! ```text
//! cargo run -p xtask -- lint                 # scan the workspace; exit 1 on findings
//! cargo run -p xtask -- lint --json F        # also write machine-readable diagnostics
//! cargo run -p xtask -- lint --rule NAME     # only report the named rule(s)
//! cargo run -p xtask -- lint --self-test     # prove the scanner catches its fixtures
//! cargo run -p xtask -- lint --rules         # list the rule set
//!
//! cargo run -p xtask -- fuzz                 # fuzz the wire front door; exit 1 on violation
//! cargo run -p xtask -- fuzz --iters N       # mutated inputs per target (default 10000)
//! cargo run -p xtask -- fuzz --seed S        # run seed (default 20050607)
//! cargo run -p xtask -- fuzz --target NAME   # frame | stream | arq (repeatable)
//! cargo run -p xtask -- fuzz --grow          # persist new-signature inputs into the corpus
//! cargo run -p xtask -- fuzz --init-corpus   # write the built-in seeds and exit
//! cargo run -p xtask -- fuzz --replay        # corpus replay only, no mutation
//! ```
//!
//! Exit codes: `0` clean, `1` violations found (or a fixture the
//! scanner failed to flag), `2` usage / I/O errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use distscroll_fuzz::{corpus, FuzzConfig, TargetKind};
use distscroll_lint::{diagnostics_to_json, scan_workspace, self_test, Rule, ALL_RULES};

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo run -p xtask -- lint [--json FILE] [--rule NAME]... [--self-test] \
         [--rules] [--root DIR]\n\
         \x20      cargo run -p xtask -- fuzz [--iters N] [--seed S] [--target NAME]... \
         [--corpus DIR] [--out DIR] [--grow] [--init-corpus] [--replay] [--root DIR]"
    );
    ExitCode::from(2)
}

/// The workspace root: two levels above this crate's manifest dir.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(args.collect()),
        Some("fuzz") => fuzz(args.collect()),
        _ => usage(),
    }
}

fn fuzz(args: Vec<String>) -> ExitCode {
    let root = default_root();
    let mut cfg = FuzzConfig {
        corpus_dir: root.join("fuzz").join("corpus"),
        out_dir: root.join("target").join("fuzz"),
        ..FuzzConfig::default()
    };
    let mut explicit_targets: Vec<TargetKind> = Vec::new();
    let mut init_corpus = false;
    let mut replay_only = false;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iters" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => cfg.iters = n,
                _ => return usage(),
            },
            "--seed" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => cfg.seed = s,
                _ => return usage(),
            },
            "--target" => match it.next().as_deref().map(TargetKind::parse) {
                Some(Some(kind)) => {
                    if !explicit_targets.contains(&kind) {
                        explicit_targets.push(kind);
                    }
                }
                _ => {
                    eprintln!("fuzz: unknown target — known targets: frame, stream, arq");
                    return ExitCode::from(2);
                }
            },
            "--corpus" => match it.next() {
                Some(dir) => cfg.corpus_dir = PathBuf::from(dir),
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(dir) => cfg.out_dir = PathBuf::from(dir),
                None => return usage(),
            },
            "--root" => match it.next() {
                Some(dir) => {
                    let r = PathBuf::from(dir);
                    cfg.corpus_dir = r.join("fuzz").join("corpus");
                    cfg.out_dir = r.join("target").join("fuzz");
                }
                None => return usage(),
            },
            "--grow" => cfg.grow = true,
            "--init-corpus" => init_corpus = true,
            "--replay" => replay_only = true,
            _ => return usage(),
        }
    }
    if !explicit_targets.is_empty() {
        cfg.targets = explicit_targets;
    }
    if replay_only {
        cfg.iters = 0;
    }

    if init_corpus {
        let seeds = corpus::builtin_seeds();
        let mut written = 0usize;
        for seed in &seeds {
            match corpus::save(&cfg.corpus_dir, seed) {
                Ok(_) => written += 1,
                Err(e) => {
                    eprintln!("fuzz: cannot write corpus entry: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        println!(
            "fuzz: wrote {written} seed(s) to {}",
            cfg.corpus_dir.display()
        );
        return ExitCode::SUCCESS;
    }

    let reports = match distscroll_fuzz::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fuzz: error — {e}");
            return ExitCode::from(2);
        }
    };

    let mut total_execs = 0u64;
    let mut total_violations = 0usize;
    for r in &reports {
        total_execs += r.executions;
        total_violations += r.violations.len();
        println!(
            "fuzz: {:6} — {} execution(s) ({} corpus), {} signature(s), {} violation(s)",
            r.target,
            r.executions,
            r.corpus_entries,
            r.new_signatures,
            r.violations.len()
        );
        for v in &r.violations {
            let origin = match v.iteration {
                Some(i) => format!("iteration {i}"),
                None => "corpus replay".to_string(),
            };
            eprintln!(
                "fuzz: VIOLATION [{}] at {origin} (seed {}): {}",
                v.target, cfg.seed, v.message
            );
            eprintln!(
                "fuzz:   reproducer: {} ({} bytes, minimized from {})",
                v.repro_path.display(),
                v.minimized_len,
                v.input_len
            );
        }
    }
    if total_violations == 0 {
        println!(
            "fuzz: PASS — {total_execs} execution(s), 0 violations (seed {})",
            cfg.seed
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("fuzz: FAIL — {total_violations} violation(s) in {total_execs} execution(s)");
        ExitCode::FAILURE
    }
}

fn lint(args: Vec<String>) -> ExitCode {
    let mut json_out: Option<String> = None;
    let mut rule_filter: Vec<Rule> = Vec::new();
    let mut run_self_test = false;
    let mut list_rules = false;
    let mut root = default_root();

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(path) => json_out = Some(path),
                None => return usage(),
            },
            "--rule" => match it.next().as_deref().map(Rule::from_name) {
                Some(Some(rule)) => {
                    if !rule_filter.contains(&rule) {
                        rule_filter.push(rule);
                    }
                }
                Some(None) => {
                    eprintln!(
                        "lint: unknown rule — known rules: {}",
                        ALL_RULES
                            .iter()
                            .map(|r| r.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage(),
            },
            "--self-test" => run_self_test = true,
            "--rules" => list_rules = true,
            _ => return usage(),
        }
    }

    if list_rules {
        for rule in ALL_RULES {
            println!("{:20} {}", rule.name(), rule.describe());
        }
        println!("total: {} rules", ALL_RULES.len());
        return ExitCode::SUCCESS;
    }

    if run_self_test {
        let fixtures = root.join("crates").join("lint").join("fixtures");
        return match self_test(&fixtures) {
            Ok(summaries) => {
                for s in &summaries {
                    println!("self-test: {s}");
                }
                println!(
                    "self-test: PASS — {} fixtures, every rule exercised",
                    summaries.len()
                );
                ExitCode::SUCCESS
            }
            Err(distscroll_lint::LintError::Fixture(msg)) => {
                eprintln!("self-test: FAIL — {msg}");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("self-test: error — {e}");
                ExitCode::from(2)
            }
        };
    }

    let mut report = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: error — {e}");
            return ExitCode::from(2);
        }
    };
    if !rule_filter.is_empty() {
        report.diagnostics.retain(|d| rule_filter.contains(&d.rule));
    }

    if let Some(path) = &json_out {
        let doc = diagnostics_to_json(&report.diagnostics, report.files_scanned);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("lint: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("lint: wrote {path}");
    }

    for d in &report.diagnostics {
        println!("{d}");
    }
    if report.diagnostics.is_empty() {
        println!(
            "lint: PASS — {} files scanned, 0 violations",
            report.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "lint: FAIL — {} violation(s) across {} files scanned",
            report.diagnostics.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}
