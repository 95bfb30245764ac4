#!/usr/bin/env sh
# verify.sh — the repo's tier-1 gate plus the invariant and race gates.
# Run from anywhere; exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
UNFORMATTED=$(gofmt -l cmd internal)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: needs formatting:"
	echo "$UNFORMATTED"
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# Simplicity metric: non-test Go lines per package, tracked alongside
# GFLOP/s (ROADMAP). Informational only: printed, never gated.
echo "== scripts/loc.sh (informational)"
sh scripts/loc.sh || true

# cake-vet: the repo's own invariant analyzers (internal/analysis), including
# the profile-guided passes — hotcover replays the committed corpus profiles
# and demands //cake:hotpath coverage on hot functions, escapecheck
# cross-checks annotated functions against the compiler's escape analysis.
# The escape diagnostics are captured once into a temp file so the second
# invocation below exercises the cached-reuse path CI depends on. The -json
# summary is the gate: "ok" must be true (advisories never flip it) — see
# DESIGN.md §9 and §15 for the invariants and how to silence a finding.
echo "== cake-vet -json ./..."
VET_TMP=$(mktemp -d)
go run ./cmd/cake-vet -json -escape-log "$VET_TMP/escape.log" ./... >"$VET_TMP/summary.json"
if ! grep -q '"ok": true' "$VET_TMP/summary.json"; then
	echo "verify: cake-vet -json did not report ok:" >&2
	cat "$VET_TMP/summary.json" >&2
	rm -rf "$VET_TMP"
	exit 1
fi

# Profile-guided passes alone, against the cached escape log: the syntax-only
# fast path must stay clean and must not recapture.
echo "== cake-vet -run=hotcover,escapecheck (cached escape log)"
go run ./cmd/cake-vet -run=hotcover,escapecheck -escape-log "$VET_TMP/escape.log" ./...
rm -rf "$VET_TMP"

echo "== go test ./..."
go test ./...

# The pure-Go fallback: the f64 8×8 kernel is Go assembly on amd64, so the
# default run above never executes the pure-Go path most packages would get
# on another CPU. -tags purego compiles the assembly out; the cross-compile
# proves a non-amd64 build still links without it.
echo "== go test -tags purego ./internal/kernel ./internal/packing ./internal/core ./internal/engine"
go test -tags purego ./internal/kernel ./internal/packing ./internal/core ./internal/engine

echo "== GOARCH=arm64 go build ./..."
GOARCH=arm64 go build ./...

# Race gate, two layers: every package runs under -race in -short mode
# (wall-clock-sensitive tests skip themselves there rather than being
# silently omitted), then the concurrency-critical packages run their full
# suites under -race.
echo "== go test -race -short ./..."
go test -race -short ./...

echo "== go test -race ./internal/pool ./internal/core ./internal/obs ./internal/engine ./internal/tenant"
go test -race ./internal/pool ./internal/core ./internal/obs ./internal/engine ./internal/tenant

# Corpus smoke: the 4-cell micro grid (including the batch invariant's
# paired cells) must run end to end and append a well-formed epoch to a
# throwaway store; the committed results/corpus trajectory is never touched
# here.
echo "== cake-bench corpus -quick -grid micro (throwaway store)"
CORPUS_TMP=$(mktemp -d)
go run ./cmd/cake-bench corpus -quick -grid micro -runs 1 \
	-store "$CORPUS_TMP/store" -out "$CORPUS_TMP/BENCH_corpus.json" -report
ls "$CORPUS_TMP"/store/0001-*.json >/dev/null
rm -rf "$CORPUS_TMP"

# The benchmark gate on the committed corpus: every invariant must hold on
# the newest committed epoch (a deterministic check of recorded data, not a
# fresh measurement of this host), and the machine-readable summary must
# say so. The trend verdicts are ADVISORY here: on a different host the
# cells judge as new-cell, and on the capture host they re-judge the
# committed epochs under whatever measurement weather recorded them —
# either way they describe the history, not the code under test. Gate on
# trend deliberately with a plain `cake-bench check` after appending a
# fresh epoch on a quiet host.
echo "== cake-bench check -trend-advisory -json"
CHECK_OUT=$(mktemp)
go run ./cmd/cake-bench check -trend-advisory -json >"$CHECK_OUT"
if ! grep -q '"ok": true' "$CHECK_OUT"; then
	echo "verify: check -json did not report ok:" >&2
	cat "$CHECK_OUT" >&2
	rm -f "$CHECK_OUT"
	exit 1
fi
rm -f "$CHECK_OUT"

echo "verify: OK"
