#!/usr/bin/env bash
# Usage: loc.sh [dir]   (default: the current directory)
#
# ROADMAP's non-test code line count: Go lines outside bench/ and
# outside _test.go files that are neither blank nor comment-only. With
# -v, also one line per file, for a CHANGES entry's before/after table.
set -euo pipefail
verbose=
if [ "${1:-}" = -v ]; then
	verbose=1
	shift
fi
cd "${1:-.}"
count() { cat "$@" | grep -v '^\s*//' | grep -vc '^\s*$' || true; }
files=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | sort)
if [ -n "$verbose" ]; then
	for f in $files; do
		printf '%6d %s\n' "$(count "$f")" "${f#./}"
	done
fi
# shellcheck disable=SC2086
count $files
