#!/usr/bin/env bash
# Checks the design record, DESIGN.md and DECISIONS.md, against the tree:
#
#   bash scripts/record.sh [BASE]
#
# from anywhere in the repository (make record runs it). It fails, naming
# each finding on standard error, when
#
#   - DESIGN.md is longer than 600 lines;
#   - a reference names a heading that does not exist: "DESIGN.md §<n>"
#     a numbered section, "DECISIONS.md PR <n>" an entry's key and
#     'DECISIONS.md, "<title>"' an entry's title (backquotes aside). Go
#     files, README.md, the Makefile, ci.yml, the verify notes and
#     DESIGN.md are read, each with its lines joined, so a reference
#     broken across comment lines is still one reference;
#   - a Test…, Benchmark…, Example… or Fuzz… name cited in DESIGN.md or
#     DECISIONS.md matches no function of a _test.go file (a sub-benchmark
#     is cited by its function's name followed by /);
#   - the identifiers in DESIGN.md's "Pinned by bench/" section differ
#     from the pkg.Name references that bench/*.go makes to the
#     repository's packages;
#   - BASE, a git revision, is given and DECISIONS.md has lost or changed
#     a line since the merge base of BASE and HEAD. An entry's "Status:"
#     line is the one line a later change may rewrite.
set -u
cd "$(dirname "${BASH_SOURCE[0]}")/.."

fail=0
bad() {
	echo "record: $*" >&2
	fail=1
}

# 1. Length.
lines=$(wc -l <DESIGN.md)
[ "$lines" -le 600 ] || bad "DESIGN.md is $lines lines; the bound is 600"

# 2. References into the two documents.
joined() { # a file's text on one line, comment markers and indentation dropped
	sed -E 's/^[[:space:]]*(\/\/+|#+)?[[:space:]]*//' "$1" | tr '\n' ' '
}
sections=$(grep -oE '^#{2,4} [0-9]+(\.[0-9]+)*' DESIGN.md | sed -E 's/^#+ //')
entries=$(grep -oE '^## PR [0-9]+[a-z]? ' DECISIONS.md | sed -E 's/^## //; s/ $//')
titles=$(sed -nE 's/^## PR [0-9]+[a-z]? — (Decision|History): //p' DECISIONS.md | tr -d '`')
sources=$(find . -name '*.go' -not -path './.bench_build/*' | sort)
sources="$sources README.md Makefile .github/workflows/ci.yml DESIGN.md"
[ -f .claude/skills/verify/SKILL.md ] && sources="$sources .claude/skills/verify/SKILL.md"
for f in $sources; do
	text=$(joined "$f")
	for s in $(grep -oE 'DESIGN\.md,? §[0-9]+(\.[0-9]+)*((,| and|/) ?§[0-9]+(\.[0-9]+)*)*' <<<"$text" |
		grep -oE '§[0-9]+(\.[0-9]+)*' | sed 's/^§//'); do
		grep -qxF "$s" <<<"$sections" || bad "$f cites DESIGN.md §$s, which has no such heading"
	done
	while IFS= read -r e; do
		[ -n "$e" ] || continue
		grep -qxF "$e" <<<"$entries" || bad "$f cites DECISIONS.md $e, which has no such entry"
	done < <(grep -oE 'DECISIONS\.md,? PR [0-9]+[a-z]?' <<<"$text" | sed -E 's/^DECISIONS\.md,? //')
	while IFS= read -r t; do
		[ -n "$t" ] || continue
		grep -qxF "$t" <<<"$titles" || bad "$f cites DECISIONS.md, \"$t\", which no entry is titled"
	done < <(grep -oE 'DECISIONS\.md,? "[^"]+"' <<<"$text" | sed -E 's/^DECISIONS\.md,? "//; s/"$//' | tr -d '`')
done

# 3. Cited tests, benchmarks, examples and fuzz targets.
funcs=$(find . -name '*_test.go' -not -path './.bench_build/*' -exec grep -hoE '^func (Test|Benchmark|Example|Fuzz)[A-Za-z0-9_]*' {} + |
	sed 's/^func //' | sort -u)
for name in $(grep -ohE '\b(Test|Benchmark|Example|Fuzz)[A-Z_][A-Za-z0-9_]*' DESIGN.md DECISIONS.md | sort -u); do
	grep -qxF "$name" <<<"$funcs" || bad "$name is cited in the record but no _test.go file defines it"
done

# 4. The identifiers bench/ pins.
pinned=$(for name in $(sed -nE 's/^[[:space:]]*([A-Za-z_][A-Za-z0-9_]* )?"wsupgrade\/(.*\/)?([^"/]+)"$/\1\3/p' bench/*.go |
	awk '{print $1}' | sort -u); do
	grep -ohE "\\b$name\\.[A-Z][A-Za-z0-9_]*" bench/*.go
done | sort -u)
listed=$(awk '/^#+ /{on = /Pinned by `?bench\//; next} on' DESIGN.md |
	grep -oE '`[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*`' | tr -d '`' | sort -u)
[ -n "$listed" ] || bad 'DESIGN.md has no "Pinned by bench/" section listing identifiers'
while IFS= read -r id; do
	[ -n "$id" ] && bad "bench/ names $id, which DESIGN.md's pinned table does not list"
done < <(comm -23 <(echo "$pinned") <(echo "$listed"))
while IFS= read -r id; do
	[ -n "$id" ] && bad "DESIGN.md's pinned table lists $id, which bench/*.go does not name"
done < <(comm -13 <(echo "$pinned") <(echo "$listed"))

# 5. DECISIONS.md only grows.
if [ $# -ge 1 ] && [ -n "$1" ]; then
	if ! base=$(git merge-base "$1" HEAD); then
		bad "no merge base between $1 and HEAD"
	elif git cat-file -e "$base:DECISIONS.md" 2>/dev/null; then
		while IFS= read -r line; do
			bad "DECISIONS.md lost or changed a line since $base: ${line#-}"
		done < <(git diff "$base" -- DECISIONS.md | grep -E '^-' | grep -vE '^--- ' | grep -vE '^-Status: ')
	fi
fi

exit $fail
