#!/usr/bin/env bash
# loc.sh — print the line counts ROADMAP.md cites: non-test Go outside
# bench/ (the benchmark's own module) and internal/lint/testdata (lint
# fixtures), then the assembly, counted apart.
#
#   ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
	find . \( -path ./.git -o -path ./bench -o -path ./internal/lint/testdata \) -prune \
		-o -type f "$@" -exec cat {} + | wc -l
}

echo "go  $(count -name '*.go' ! -name '*_test.go')"
echo "asm $(count -name '*.s')"
