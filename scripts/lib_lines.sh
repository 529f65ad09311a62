#!/bin/sh
# Prints the number of library Rust lines: every line of every `.rs` file
# under `crates/*/src` above that file's first `#[cfg(test)]` line that is
# directly followed by a `mod tests {` line. A file without such a pair
# counts whole. Run from anywhere in the repository.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { total += lines; lines = 0; cut = 0; prev_cfg = 0 }
    cut { next }
    prev_cfg && /^mod tests \{$/ { lines--; cut = 1; next }
    { lines++; prev_cfg = /^#\[cfg\(test\)\]$/ }
    END { print total + lines }
'
