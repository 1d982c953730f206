#!/usr/bin/env bash
# Lines of Rust per crate under crates/*/src: total, and production —
# everything outside `#[cfg(test)]` items (the attribute line through the
# brace that closes the item it marks; for `#[cfg(test)] mod name;`, the
# whole of name.rs).
set -euo pipefail
cd "$(dirname "$0")/.."
printf '%-12s %7s %11s\n' crate total production
for dir in crates/*/src; do
    testmods=$(grep -rhA1 '^\s*#\[cfg(test)\]' "$dir" | sed -n 's/^\s*mod \(\w*\);.*/\1.rs/p' | tr '\n' ' ')
    find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="${dir:7:-4}" -v testmods=" $testmods" '
        FNR == 1 { n = split(FILENAME, path, "/"); intest = index(testmods, " " path[n] " ") ? 2 : 0 }
        { total++ }
        intest == 2 { next }
        intest == 1 {
            opens = gsub(/\{/, "{"); depth += opens - gsub(/\}/, "}"); opened += opens
            if ((opened && depth <= 0) || (!opened && /;[ \t]*$/)) intest = 0
            next
        }
        /^[ \t]*#\[cfg\(test\)\]/ { intest = 1; opened = 0; depth = 0; next }
        { prod++ }
        END { printf "%-12s %7d %11d\n", crate, total, prod }'
done | awk '{ print; t += $2; p += $3 } END { printf "%-12s %7d %11d\n", "all", t, p }'
