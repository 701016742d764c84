#!/usr/bin/env bash
# check.sh is the full local CI gate: formatting, vet, psilint, build,
# race-enabled tests, the serving smoke (scripts/serve_smoke.sh), and a
# short fuzz smoke over every fuzz target.
#
# Usage:
#   ./scripts/check.sh                    # everything, ~2-5 minutes
#   FUZZTIME=30s ./scripts/check.sh       # longer fuzz smoke
#   FUZZTIME=0 ./scripts/check.sh         # skip the fuzz smoke
set -euo pipefail

cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

step() { printf '\n== %s\n' "$*"; }

step "gofmt"
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet ./..."
go vet ./...

step "go build ./..."
go build ./...

step "psilint"
go run ./cmd/psilint -root .

step "go test -race ./..."
go test -race ./...

# One iteration each: keeps the forest benchmark and its seed-fitter
# oracle compiling and running.
step "forest-fit benchmark smoke"
go test -run '^$' -bench TrainForest -benchtime 1x ./internal/ml/

# benchmark/ is a module of its own (it builds against this one through
# a replace directive), so ./... above never compiles it.
step "benchmark module (vet + tests against this tree's engine API)"
go -C benchmark vet ./...
go -C benchmark test ./...

step "observability suite (-race; overhead + shadow guards, /modelz, decision log)"
go test -race -count=1 -run 'TestObs|TestShadow|TestModelz|TestDecisionLog|TestMerge' \
    ./internal/obs/ ./internal/psi/ ./internal/smartpsi/ \
    ./cmd/psi-bench/ ./cmd/psi-workload/ ./cmd/psi-decisions/

step "decision-log pipeline (psi-workload -shadow-rate -> psi-decisions)"
declog_dir="$(mktemp -d)"
trap 'rm -rf "$declog_dir"' EXIT
go run ./cmd/psi-workload -dataset cora -sizes 4 -count 4 -evaluate \
    -shadow-rate 0.5 -decision-log "$declog_dir/decisions.jsonl" \
    -out "$declog_dir/queries.lg"
go run ./cmd/psi-decisions "$declog_dir/decisions.jsonl"
go run ./cmd/psi-decisions -json "$declog_dir/decisions.jsonl" > /dev/null

step "serving smoke (psi-serve + psi-loadgen: verify, overload shed, drain)"
./scripts/serve_smoke.sh

if [[ "$FUZZTIME" != "0" ]]; then
    step "fuzz smoke ($FUZZTIME per target)"
    go test ./internal/graph/ -run '^$' -fuzz 'FuzzLGRoundTrip' -fuzztime "$FUZZTIME"
    go test ./internal/psi/ -run '^$' -fuzz 'FuzzMatchVsReference' -fuzztime "$FUZZTIME"
fi

step "OK"
