#!/bin/sh
# Print the size of the library code: non-test code lines in crates/*/src
# and the number of `pub fn` items among them.
#
# A line counts when it comes before its file's first `#[cfg(test)]` and is
# neither blank nor a `//` comment (doc comments included). Run from any
# directory: `scripts/code_size.sh`.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    in_test { next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { lines++ }
    /^[[:space:]]*pub fn / { pub_fns++ }
    END {
        printf "non-test code lines: %d\n", lines
        printf "pub fn: %d\n", pub_fns
    }'
