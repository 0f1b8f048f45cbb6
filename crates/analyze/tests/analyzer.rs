//! Fixture-driven integration tests: each fixture seeds violations one
//! pass family must catch (and near-misses it must not), with the
//! exact expected `(rule, line)` set asserted. The final test runs the
//! full workspace scoping over the real repository and requires zero
//! findings — the same gate CI enforces.

use std::path::{Path, PathBuf};

use musuite_analyze::findings::Finding;
use musuite_analyze::{analyze_all_rules, analyze_workspace, load_crate_dir, load_workspace};

fn fixture(name: &str) -> Vec<Finding> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let files = load_crate_dir(name, &dir).expect("fixture dir loads");
    assert!(!files.is_empty(), "fixture {name} has files");
    analyze_all_rules(&files)
}

/// Asserts the findings are exactly `expected` as `(rule-id, line)`
/// pairs, in the analyzer's stable output order.
fn assert_findings(got: &[Finding], expected: &[(&str, u32)]) {
    let gots: Vec<(String, u32)> = got.iter().map(|f| (f.rule.id().to_string(), f.line)).collect();
    let want: Vec<(String, u32)> = expected.iter().map(|(r, l)| (r.to_string(), *l)).collect();
    assert_eq!(gots, want, "findings were: {got:#?}");
}

#[test]
fn raw_sync_alias_fixture() {
    let got = fixture("raw_sync_alias");
    assert_findings(
        &got,
        &[
            ("raw-sync", 5),  // use std::sync::Mutex as StdMutex
            ("raw-sync", 6),  // use std::sync::{Arc, RwLock}
            ("raw-sync", 7),  // use std::sync::atomic::{AtomicU64, ..}
            ("raw-sync", 10), // StdMutex alias use in a field type
            ("raw-sync", 15), // std::sync::Mutex in a return type
            ("raw-sync", 16), // std::sync::Mutex::new(..)
            ("raw-sync", 36), // Condvar BELOW the #[cfg(test)] module
        ],
    );
    assert!(
        got.iter().any(|f| f.line == 10 && f.message.contains("alias")),
        "the aliased-use finding explains itself: {got:#?}"
    );
}

#[test]
fn panic_hygiene_fixture() {
    let got = fixture("panic_hygiene");
    assert_findings(
        &got,
        &[
            ("unwrap", 5), // input.unwrap()
            ("unwrap", 9), // multi-line r.expect(
        ],
    );
}

#[test]
fn raw_thread_fixture() {
    let got = fixture("raw_thread");
    assert_findings(
        &got,
        &[
            ("raw-thread", 6),  // use std::thread::spawn as go
            ("raw-thread", 9),  // std::thread::spawn(..)
            ("raw-thread", 13), // thread::spawn(..) via module
            ("raw-thread", 17), // go(..) via leaf alias
            ("raw-thread", 21), // std::thread::Builder::new()
        ],
    );
}

#[test]
fn lock_order_cycle_fixture() {
    let got = fixture("lock_order_cycle");
    assert_findings(&got, &[("lock-order", 16)]);
    let f = &got[0];
    assert!(f.message.contains("accounts") && f.message.contains("audit"), "{f}");
    assert!(f.message.contains("AB-BA"), "{f}");
}

#[test]
fn blocking_reactor_fixture() {
    let got = fixture("blocking_reactor");
    assert_findings(
        &got,
        &[
            ("nonblocking", 29), // untimed recv() directly in a root
            ("nonblocking", 37), // thread::sleep two hops below sweep()
        ],
    );
    let sleep = got.iter().find(|f| f.line == 37).expect("sleep finding");
    assert!(
        sleep.message.contains("sweep") && sleep.message.contains("helper"),
        "chain names root and hop: {sleep}"
    );
}

#[test]
fn deadline_prop_fixture() {
    let got = fixture("deadline_prop");
    assert_findings(
        &got,
        &[
            ("deadline", 11), // scatter_all without the budget
            ("deadline", 46), // scatter_all next to wire-forwarded siblings
            ("deadline", 91), // issue(..) of fresh members loses the budget
            ("deadline", 97), // handle_batch(..) of fresh members likewise
        ],
    );
    assert!(got[0].message.contains("deadline"), "{}", got[0]);
    // The clean siblings at lines 44-45 (budget via `remaining_budget()`,
    // bound and inline), 52 (`with_budget` header), 90 (a batch drained
    // via `pop_batch` keeps per-member budgets), and 96 (merged scatter
    // fed a deadline-derived budget) must not appear.
    assert!(
        got.iter().all(|f| ![44, 45, 52, 90, 96].contains(&f.line)),
        "wire-header and batch budget forwarding must satisfy the rule: {got:#?}"
    );
}

#[test]
fn unsafe_confinement_fixture() {
    let got = fixture("unsafe_confinement");
    assert_findings(
        &got,
        &[
            ("unsafe-confinement", 4),  // #![allow(unsafe_code)]
            ("unsafe-confinement", 8),  // unsafe impl
            ("unsafe-confinement", 11), // unsafe block
            ("unsafe-confinement", 14), // allow(.., unsafe_code) in a list
            ("unsafe-confinement", 15), // unsafe fn
            ("unsafe-confinement", 30), // unsafe block in test code
        ],
    );
    // The comment, identifier and string at lines 19-22, the plain
    // `allow(dead_code)` at 17, and the allow-listed
    // crates/rpc/src/sys.rs must not appear.
    assert!(got.iter().all(|f| f.file == "lib.rs"), "allow-listed path flagged: {got:#?}");
}

#[test]
fn real_workspace_is_clean() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = load_workspace(&root).expect("workspace loads");
    assert!(files.len() > 50, "workspace discovery found {} files", files.len());
    // Every crate the roadmap names must be in scope.
    for name in ["musuite-rpc", "musuite-core", "musuite-router", "musuite-hdsearch"] {
        assert!(files.iter().any(|f| f.crate_name == name), "missing crate {name}");
    }
    // `unsafe-confinement` reads tests, examples and benches too; the
    // allow-listed example must be among them.
    assert!(
        files.iter().any(|f| f.rel == "crates/bench/examples/alloc_probe.rs"),
        "non-src targets are loaded"
    );
    let findings = analyze_workspace(&files);
    assert!(findings.is_empty(), "workspace findings: {findings:#?}");
}
