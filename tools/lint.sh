#!/usr/bin/env bash
# Workspace lint pass — thin wrapper around the musuite-analyze binary.
#
# The historical grep/awk rules that lived here (raw std::sync
# primitives, unwrap()/expect() hygiene, raw std::thread spawns) are now
# semantic passes in `crates/analyze`, which also runs three checks grep
# could never express: static lock-order (AB-BA) cycle detection,
# blocking-call reachability from #[musuite_marker::nonblocking] roots,
# and deadline-propagation checking. See DESIGN.md §5e.
#
# The move also fixes a real bug in the old awk scan: it exempted
# everything from the first `#[cfg(test)]` marker to end-of-file, so
# violations *below* a test module were invisible. The analyzer scopes
# the test exemption to the actual item the attribute gates.
#
# Suppression markers are unchanged: `// lint: allow(<rule>): <why>` on
# the offending line or the line above. Rule ids: raw-sync, unwrap
# (legacy alias: expect), raw-thread, lock-order, nonblocking, deadline.
# The seventh rule, unsafe-confinement, takes no marker: `unsafe` may
# appear only in the files its allow-list names.
#
# Run from anywhere; exits non-zero on any finding.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo run -q -p musuite-analyze -- --root .; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK"
