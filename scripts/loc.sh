#!/usr/bin/env sh
# loc.sh — non-test Go lines per package, the simplicity metric tracked
# alongside GFLOP/s (ROADMAP: "the same speed and behaviour from the least
# code"). Counts every line (comments and blanks included) of the non-test
# .go files directly in each package directory; subpackages are listed on
# their own line. Informational only: it never fails a build.
#
#   scripts/loc.sh            every package in the module
#   scripts/loc.sh DIR...     just these package directories
set -eu
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
	set -- $(find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path '*/testdata/*' \
		-exec dirname {} \; | sort -u)
fi

total=0
for dir in "$@"; do
	dir=${dir#./}
	n=0
	for f in "$dir"/*.go; do
		case "$f" in *_test.go) continue ;; esac
		[ -f "$f" ] || continue
		n=$((n + $(wc -l <"$f")))
	done
	printf '%7d  %s\n' "$n" "$dir"
	total=$((total + n))
done
printf '%7d  total\n' "$total"
