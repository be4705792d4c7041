#!/usr/bin/env bash
# Grep-level reachability check for the public surface (ROADMAP item 10).
#
# For every `pub fn|struct|enum|trait|const` identifier declared in a
# crate's library (crates/<c>/src minus src/bin/), the name is *dead* when
# it appears as a word in no .rs file outside that library — other crates,
# the crate's own binaries (they link the lib as an external crate), the
# root src/ tests/ examples/, any crate's tests/, and benchmark/src. It is a
# word match, not name resolution: a common method name (`new`, `len`) is
# kept alive by any namesake, so the list under-reports; what it does
# report has no caller outside its own crate.
#
# Prints the dead list as `<crate>::<name>` and exits 1 unless it equals
# scripts/dead_pub.allow: a dead name missing from the allow file fails, and
# so does a stale entry (a listed name that was deleted or gained a caller).
# For a new dead name, delete the item (and its tests) or, if it is meant to
# stay crate-internal API, drop the `pub`; add to the allow file only with a
# reason in the PR. For a stale entry, delete the line.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW=scripts/dead_pub.allow
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

find crates src tests examples benchmark/src -name '*.rs' -not -path '*/target/*' | sort >"$tmp/all"

for dir in crates/*/; do
    c="$(basename "$dir")"
    [ -d "$dir/src" ] || continue
    { grep -v "^crates/$c/src/" "$tmp/all" || true; grep "^crates/$c/src/bin/" "$tmp/all" || true; } |
        xargs grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$tmp/outside"
    find "crates/$c/src" -name '*.rs' -not -path "crates/$c/src/bin/*" -print0 |
        xargs -0 sed -nE 's/^[[:space:]]*pub (const fn|unsafe fn|fn|struct|enum|trait|const) ([A-Za-z_][A-Za-z0-9_]*).*/\2/p' |
        sort -u | comm -23 - "$tmp/outside" | sed "s/^/$c::/"
done | sort >"$tmp/dead"

cat "$tmp/dead"
grep -vE '^(#|$)' "$ALLOW" | sort >"$tmp/allow"
new="$(comm -23 "$tmp/dead" "$tmp/allow")"
stale="$(comm -13 "$tmp/dead" "$tmp/allow")"
if [ -n "$stale" ]; then
    echo "dead_pub: no longer dead, remove from $ALLOW:" >&2
    echo "$stale" | sed 's/^/  /' >&2
fi
if [ -n "$new" ]; then
    echo "dead_pub: public items with no use outside their own crate's src/ (not in $ALLOW):" >&2
    echo "$new" | sed 's/^/  /' >&2
fi
if [ -n "$stale$new" ]; then
    exit 1
fi
echo "dead_pub: $(wc -l <"$tmp/dead") dead public names, exactly the allow list." >&2
