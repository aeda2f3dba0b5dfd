#!/usr/bin/env bash
# The full repository gate in one command — CI and builders run the same
# thing (see CLAUDE.md):
#
#   gofmt clean, go vet, build, full test suite, fault-spec fuzz runs,
#   paper self-check, the schedd serving smoke (ephemeral port, pinned
#   Table-1 trace, cache byte-identity, span-tree trace leg, batch leg,
#   the storm, truncate-flood, breaker-trip, panic-isolation,
#   restart-recovery and disk-fault chaos scenarios in-process, graceful
#   drain), the schedgw cluster smoke (3 local backends,
#   cluster-vs-singleton byte-identity, batch split/merge, traces,
#   statusz, the backend-rejoin cluster chaos scenario, drain), the
#   schedchaos scenario sweep (every builtin phased fault scenario —
#   single-instance, cluster, restart-recovery and the disk-tier
#   fault/full arcs — every invariant) and the tracing legs
#   (schedd/schedgw -trace-out span streams analyzed by schedtrace
#   -counts, pinned against scripts/testdata/trace_counts.golden and
#   gateway_trace_counts.golden). The -race leg covers internal/serve's
#   concurrency tests plus the resilience layer (internal/faults,
#   internal/client), the cluster gateway, the chaos harness and the
#   daemons' end-to-end tests.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "[ok  ] gofmt"

go vet ./...
echo "[ok  ] go vet"

go build ./...
echo "[ok  ] go build"

go test ./...
echo "[ok  ] go test"

go test -race ./internal/... ./cmd/...
echo "[ok  ] go test -race (internal + cmd)"

# Short fuzz runs over the two fault-spec grammars: no panics, and the
# canonical String of any accepted spec re-parses to itself. go test -fuzz
# takes one package and one target per run.
go test ./internal/faults -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s
go test ./internal/store -run '^$' -fuzz '^FuzzParseFaultSpec$' -fuzztime 10s
echo "[ok  ] fuzz: fault-spec grammars round-trip (faults.Parse, store.ParseFaultSpec)"

go run ./cmd/paperrepro
echo "[ok  ] paperrepro"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/schedd -selfcheck -trace-out "$tmp/spans.jsonl" >/dev/null
echo "[ok  ] schedd selfcheck"

# The selfcheck's span stream is deterministic in everything but durations;
# schedtrace -counts strips the wall-clock columns, so the remainder must
# match the pinned golden byte for byte (and schedtrace itself exits
# non-zero on any structural violation).
go run ./cmd/schedtrace -counts "$tmp/spans.jsonl" >"$tmp/trace_counts.txt"
diff -u scripts/testdata/trace_counts.golden "$tmp/trace_counts.txt"
echo "[ok  ] schedd -trace-out span stream matches the schedtrace golden"

go run ./cmd/schedgw -selfcheck -trace-out "$tmp/gwspans.jsonl" >/dev/null
echo "[ok  ] schedgw selfcheck"

# Same determinism contract for the gateway's span stream: route,
# backend_wait, batch_merge and write stage counts are pinned.
go run ./cmd/schedtrace -counts "$tmp/gwspans.jsonl" >"$tmp/gateway_trace_counts.txt"
diff -u scripts/testdata/gateway_trace_counts.golden "$tmp/gateway_trace_counts.txt"
echo "[ok  ] schedgw -trace-out span stream matches the schedtrace golden"

# Every builtin scenario with its pinned seed; exits non-zero on any
# violated invariant. Among them: restart-recovery (the crash-safe disk
# tier's kill -> torn tail -> restart -> byte-identical disk-hit path),
# disk-fault (a seeded I/O fault storm stays client-invisible while the
# health machine degrades and probes its way back to healthy) and
# disk-full (ENOSPC pins the tier read-only with exact drop accounting).
go run ./cmd/schedchaos >/dev/null
echo "[ok  ] schedchaos scenarios (single-instance + cluster + restart + disk)"
