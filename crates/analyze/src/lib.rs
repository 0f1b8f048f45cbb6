//! musuite-analyze: AST-level invariant analyzer for the μ Suite
//! workspace.
//!
//! Replaces the grep rules in `tools/lint.sh` with semantic passes
//! over a real token/item model, and adds three passes grep could
//! never express: static lock-order cycle detection, blocking-call
//! reachability from `#[nonblocking]` roots, and deadline-propagation
//! checking. See `DESIGN.md` §5e for the full rationale and the
//! per-pass scoping table.
//!
//! `syn` cannot be vendored into this offline workspace, so the
//! front end (lexer + structural parser) is hand-rolled in
//! [`lex`]/[`parse`] — it recovers exactly the structure the passes
//! need and degrades gracefully on anything else.

pub mod calls;
pub mod findings;
pub mod lex;
pub mod parse;
pub mod passes;

use std::path::Path;

use findings::Finding;
use parse::SourceFile;

/// Crates whose internals the analyzer must not look inside: the
/// model checker's shims intentionally block (that is their job), and
/// the marker crate is a proc-macro.
const INTERNAL_CRATES: &[&str] = &["musuite-check", "musuite-marker"];

/// Crates where `unwrap()`/`expect()` hygiene is enforced (the
/// historical lint.sh rule 2 scope: the library code on request paths).
const UNWRAP_CRATES: &[&str] = &["musuite-rpc", "musuite-core"];

/// Crates where raw `std::thread` spawns are forbidden (rule 3 scope:
/// everything the deterministic scheduler must be able to interpose).
const THREAD_CRATES: &[&str] = &["musuite-rpc"];

/// The only files that may hold `unsafe`: the reactor's hand-declared
/// `epoll` bindings and the counting allocator of the allocation probe.
const UNSAFE_ALLOWED: &[&str] = &["crates/rpc/src/sys.rs", "crates/bench/examples/alloc_probe.rs"];

/// Target directories read besides `src/` — only `unsafe-confinement`
/// looks at them. Fixture trees (deliberate violations) are skipped.
const OTHER_TARGETS: &[&str] = &["tests", "examples", "benches"];

/// Loads every workspace crate's `src/**/*.rs` under `root/crates`, plus
/// its `tests`, `examples` and `benches` (and the workspace-level
/// `examples/` and `tests/`, which belong to the `musuite` crate).
///
/// Crate names are read from each `Cargo.toml`'s `[package] name` key;
/// vendored dependencies and non-crate directories are ignored.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let manifest = dir.join("Cargo.toml");
        let Ok(toml) = std::fs::read_to_string(&manifest) else { continue };
        let Some(name) = package_name(&toml) else { continue };
        for target in std::iter::once("src").chain(OTHER_TARGETS.iter().copied()) {
            let target = dir.join(target);
            if target.is_dir() {
                collect_rs(&target, root, &name, &mut files)?;
            }
        }
    }
    for target in ["examples", "tests"] {
        let target = root.join(target);
        if target.is_dir() {
            collect_rs(&target, root, "musuite", &mut files)?;
        }
    }
    Ok(files)
}

/// Loads every `.rs` file under `dir` as belonging to crate `name`,
/// with paths reported relative to `dir` — the fixture entry point.
pub fn load_crate_dir(name: &str, dir: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    collect_rs(dir, dir, name, &mut files)?;
    Ok(files)
}

/// Recursively parses `.rs` files under `dir` into `out`.
fn collect_rs(
    dir: &Path,
    rel_root: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    let mut entries: Vec<_> =
        std::fs::read_dir(dir)?.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().map(|n| n == "fixtures").unwrap_or(false) {
                continue;
            }
            collect_rs(&path, rel_root, crate_name, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            let rel =
                path.strip_prefix(rel_root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            out.push(SourceFile::parse_file(&path, &rel, crate_name)?);
        }
    }
    Ok(())
}

/// Extracts `[package] name = "..."` from manifest text.
fn package_name(toml: &str) -> Option<String> {
    let mut in_package = false;
    for line in toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Runs every pass with the workspace scoping rules: `unsafe-confinement`
/// over every loaded file, the others over library sources only.
pub fn analyze_workspace(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(passes::raw_sync::run(&filtered(files, |c| !INTERNAL_CRATES.contains(&c))));
    out.extend(passes::panic_hygiene::run(&filtered(files, |c| UNWRAP_CRATES.contains(&c))));
    out.extend(passes::raw_thread::run(&filtered(files, |c| THREAD_CRATES.contains(&c))));
    out.extend(passes::lock_order::run(&filtered(files, |c| !INTERNAL_CRATES.contains(&c))));
    out.extend(passes::nonblocking::run(&filtered(files, |_| true), INTERNAL_CRATES));
    out.extend(passes::deadline::run(&filtered(files, |c| !INTERNAL_CRATES.contains(&c))));
    out.extend(passes::unsafe_confinement::run(files, UNSAFE_ALLOWED));
    sort_dedupe(&mut out);
    out
}

/// Runs every pass unconditionally over one crate's files — used by the
/// fixture tests, where scoping is the test author's job.
pub fn analyze_all_rules(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(passes::raw_sync::run(files));
    out.extend(passes::panic_hygiene::run(files));
    out.extend(passes::raw_thread::run(files));
    out.extend(passes::lock_order::run(files));
    out.extend(passes::nonblocking::run(files, &[]));
    out.extend(passes::deadline::run(files));
    out.extend(passes::unsafe_confinement::run(files, UNSAFE_ALLOWED));
    sort_dedupe(&mut out);
    out
}

/// Clones the library sources (`<crate>/src/**`) whose crate passes
/// `pred` (SourceFile is not cheap to clone, so this re-parses nothing
/// but does copy tokens; workspace size keeps this well under a
/// millisecond-scale concern).
fn filtered(files: &[SourceFile], pred: impl Fn(&str) -> bool) -> Vec<SourceFile> {
    files
        .iter()
        .filter(|f| f.rel.contains("/src/") && pred(&f.crate_name))
        .map(|f| SourceFile {
            rel: f.rel.clone(),
            crate_name: f.crate_name.clone(),
            tokens: f.tokens.clone(),
            lines: f.lines.clone(),
            uses: f.uses.clone(),
            fns: f.fns.clone(),
            test_ranges: f.test_ranges.clone(),
            use_ranges: f.use_ranges.clone(),
        })
        .collect()
}

/// Stable output order, duplicates removed.
fn sort_dedupe(out: &mut Vec<Finding>) {
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.id(), a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule.id(),
            b.message.as_str(),
        ))
    });
    out.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
}
