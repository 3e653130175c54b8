#!/usr/bin/env bash
# Count the repository's non-test Go lines: every *.go file except
# *_test.go, outside _perfbench/ (the benchmark harness is its own module).
# The analyzer's testdata/ fixtures are counted apart, so the line that
# design changes report is the count without them.
#
# Usage: scripts/loc.sh [rev]
#
# Prints the working tree's count (tracked and untracked files) and, given
# a revision, that revision's count and the difference.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# count prints "<lines without fixtures> <fixture lines>" for the working
# tree, or for the revision given.
count() {
	local tree=(--untracked '')
	[[ $# -gt 0 ]] && tree=('' "$1")
	git grep -c "${tree[@]}" -- '*.go' ':!:*_test.go' ':!:_perfbench/' |
		awk -F: '{ if ($0 ~ /(^|[:\/])testdata\//) fix += $NF; else code += $NF }
			END { printf "%d %d\n", code, fix }'
}

report() {
	printf '%-12s %6d non-test Go lines (+%d in testdata/ fixtures)\n' "$1" "$2" "$3"
}

read -r code fix < <(count)
report "worktree" "$code" "$fix"
if [[ $# -gt 0 ]]; then
	read -r rcode rfix < <(count "$1")
	report "$1" "$rcode" "$rfix"
	printf '%-12s %+6d non-test Go lines (%+d in fixtures)\n' "change" $((code - rcode)) $((fix - rfix))
fi
