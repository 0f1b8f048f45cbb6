//! Rule `unsafe-confinement`: `unsafe` code outside the allow-list.
//!
//! The workspace lint `unsafe_code = "deny"` can be lifted by any file
//! with an `allow(unsafe_code)`; this pass pins where that may happen.
//! It flags every `unsafe` keyword (blocks, `unsafe impl`, `unsafe fn`)
//! and every `allow(unsafe_code)` attribute in a file whose path is not
//! on the allow-list, test code included. No `lint: allow` marker
//! suppresses it: widening the allow-list is a change to the analyzer.

use crate::findings::{Finding, Rule};
use crate::lex::TokKind;
use crate::parse::SourceFile;

/// Runs the pass over `files`; paths in `allowed` (exact, as the files
/// report them) may hold `unsafe`.
pub fn run(files: &[SourceFile], allowed: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files.iter().filter(|f| !allowed.contains(&f.rel.as_str())) {
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let what = if t.text == "unsafe" {
                match toks.get(i + 1) {
                    Some(n) if n.is_punct('{') => "`unsafe` block",
                    Some(n) if n.is_ident("impl") => "`unsafe impl`",
                    Some(n) if n.is_ident("fn") => "`unsafe fn`",
                    _ => "`unsafe` code",
                }
            } else if t.text == "allow" && allows_unsafe_code(file, i) {
                "`allow(unsafe_code)`"
            } else {
                continue;
            };
            out.push(Finding {
                rule: Rule::UnsafeConfinement,
                file: file.rel.clone(),
                line: t.line,
                message: format!("{what} outside the unsafe allow-list ({})", allowed.join(", ")),
            });
        }
    }
    out
}

/// `true` if the `allow` at token `i` opens a parenthesised list naming
/// `unsafe_code`.
fn allows_unsafe_code(file: &SourceFile, i: usize) -> bool {
    let toks = &file.tokens;
    if !toks.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false) {
        return false;
    }
    for t in &toks[i + 2..] {
        if t.is_punct(')') {
            return false;
        }
        if t.is_ident("unsafe_code") {
            return true;
        }
    }
    false
}
