//! Finding model, rule identifiers, and the `lint: allow` suppression
//! convention shared with the old grep-based `tools/lint.sh`.

use crate::parse::SourceFile;

/// Stable rule identifiers, one per pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Raw `std::sync` primitive outside the musuite-check shims.
    RawSync,
    /// Unmarked `unwrap()`/`expect()` in library code.
    Unwrap,
    /// Raw `std::thread` spawn invisible to the model checker.
    RawThread,
    /// Potential AB-BA cycle in the static lock acquisition graph.
    LockOrder,
    /// Blocking API reachable from a `#[nonblocking]` root.
    Nonblocking,
    /// Deadline parameter not threaded into nested calls.
    Deadline,
    /// `unsafe` code outside the allow-listed files.
    UnsafeConfinement,
}

impl Rule {
    /// The id used in findings and `lint: allow(<id>)` markers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::RawSync => "raw-sync",
            Rule::Unwrap => "unwrap",
            Rule::RawThread => "raw-thread",
            Rule::LockOrder => "lock-order",
            Rule::Nonblocking => "nonblocking",
            Rule::Deadline => "deadline",
            Rule::UnsafeConfinement => "unsafe-confinement",
        }
    }

    /// Additional accepted `lint: allow` ids (legacy spellings from the
    /// grep-based lint, kept so existing markers stay valid).
    pub fn aliases(self) -> &'static [&'static str] {
        match self {
            Rule::Unwrap => &["expect"],
            Rule::RawSync => &["raw_sync"],
            Rule::RawThread => &["raw_thread"],
            _ => &[],
        }
    }

    /// Every rule, for reporting.
    pub const ALL: [Rule; 7] = [
        Rule::RawSync,
        Rule::Unwrap,
        Rule::RawThread,
        Rule::LockOrder,
        Rule::Nonblocking,
        Rule::Deadline,
        Rule::UnsafeConfinement,
    ];
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which pass produced it.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-oriented description, including the fix direction.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// `true` if a `lint: allow(...)` marker on `line` or the line above it
/// names `rule` (by id or accepted alias).
///
/// Marker grammar, compatible with the historical grep rule:
/// `// lint: allow(expect): why dying is right here` — ids inside the
/// parens, separated by commas, with an optional `: reason` tail.
pub fn suppressed(file: &SourceFile, line: u32, rule: Rule) -> bool {
    let hit = |l: &str| -> bool {
        let Some(pos) = l.find("lint: allow(") else {
            return false;
        };
        let rest = &l[pos + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            return false;
        };
        rest[..close]
            .split(',')
            .map(str::trim)
            .any(|id| id == rule.id() || rule.aliases().contains(&id))
    };
    hit(file.line(line)) || (line >= 2 && hit(file.line(line - 1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("t.rs", "t", src)
    }

    #[test]
    fn same_line_and_previous_line_markers_suppress() {
        let f = file(
            "let a = x.expect(\"q\"); // lint: allow(expect): reason\n\
             // lint: allow(unwrap)\n\
             let b = y.unwrap();\n\
             let c = z.unwrap();\n",
        );
        assert!(suppressed(&f, 1, Rule::Unwrap), "legacy expect alias");
        assert!(suppressed(&f, 3, Rule::Unwrap));
        assert!(!suppressed(&f, 4, Rule::Unwrap));
    }

    #[test]
    fn marker_must_name_the_rule() {
        let f = file("x.lock(); // lint: allow(unwrap)\n");
        assert!(!suppressed(&f, 1, Rule::RawSync));
        assert!(suppressed(&f, 1, Rule::Unwrap));
    }

    #[test]
    fn comma_separated_ids() {
        let f = file("y(); // lint: allow(raw-sync, lock-order)\n");
        assert!(suppressed(&f, 1, Rule::RawSync));
        assert!(suppressed(&f, 1, Rule::LockOrder));
        assert!(!suppressed(&f, 1, Rule::Unwrap));
    }
}
