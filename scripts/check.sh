#!/bin/sh
# Full local gate: mirrors .github/workflows/ci.yml and `make check`.
set -eux

cd "$(dirname "$0")/.."

# Formatting gate: print the offending files so the diff is in the log.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go vet ./...

# staticcheck is optional tooling: run it when the host has it, skip
# (loudly) when it does not — bare containers stay green either way.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping" >&2
fi

go test ./...
go test -race ./...

# perfbench is its own module (it builds against the solver's exported
# API), so the root build never compiles it.
(cd perfbench && go vet ./... && go test ./...)
