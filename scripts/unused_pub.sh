#!/usr/bin/env bash
# Unused public surface of the crates: fails when a `pub fn` under
# crates/*/src is named in no Rust file outside the one defining it.
# The search covers every .rs file under crates, src, tests, examples and
# benchmark/src, so a function only its own file (or its own unit tests)
# calls is reported. Names are matched as whole words; a line elsewhere
# that defines a namesake (`fn <name>`) is not a use, but a namesake
# called elsewhere still counts as one: the check finds dead API, it does
# not prove a name live.
#
# scripts/unused_pub.allow lists the deliberate exceptions, one per line:
# the function name, whitespace, and why it stays public. An entry
# without a reason, or one whose function is no longer unused, fails too.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/unused_pub.allow
status=0

while read -r name reason; do
    if [[ -z "$reason" ]]; then
        echo "unused pub: allowlist entry '$name' gives no reason" >&2
        status=1
    fi
done < <(grep -vE '^[[:space:]]*(#|$)' "$allow")

unused=()
for file in $(find crates/*/src -name '*.rs' | sort); do
    for name in $(grep -oE '^[[:space:]]*pub (const |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*' "$file" \
        | sed -E 's/.*fn //' | sort -u); do
        if ! grep -rnw --include='*.rs' -e "$name" crates src tests examples benchmark/src \
            | awk -v own="$file:" 'index($0, own) != 1' \
            | grep -vE "^[^:]+:[0-9]+:.*\bfn[[:space:]]+$name\b" >/dev/null; then
            unused+=("$name")
            if ! grep -qE "^$name[[:space:]]" "$allow"; then
                echo "unused pub: $file: pub fn $name is named in no other file" >&2
                status=1
            fi
        fi
    done
done

while read -r name _; do
    if [[ ! " ${unused[*]} " == *" $name "* ]]; then
        echo "unused pub: allowlist entry '$name' is not an unused pub fn; drop it" >&2
        status=1
    fi
done < <(grep -vE '^[[:space:]]*(#|$)' "$allow")

if [[ $status -eq 0 ]]; then
    echo "unused pub: every pub fn in crates/*/src is used outside its file (${#unused[@]} allowlisted)"
fi
exit $status
