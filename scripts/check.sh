#!/usr/bin/env bash
# check.sh is the full local CI gate: formatting, the observability
# line budget, vet, psilint, build,
# race-enabled tests, the tests again with metric collection and with
# deep invariant checking on (as CI runs them), the serving smoke
# (scripts/serve_smoke.sh), and a short fuzz smoke over every fuzz
# target.
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

# internal/obs and cmd/psi-bundle together hold a budget of 3,500
# non-test Go lines (ROADMAP item 9): the observability stack must not
# outgrow it again.
step "observability line budget (internal/obs + cmd/psi-bundle, at most 3500 non-test Go lines)"
obs_lines="$(find internal/obs cmd/psi-bundle -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
echo "internal/obs + cmd/psi-bundle: $obs_lines non-test Go lines"
if [[ "$obs_lines" -gt 3500 ]]; then
    echo "the observability stack is over its 3500-line budget" >&2
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

# Every engine budget counts work, not wall time, so two runs of a query
# agree on all but the clock's reports, and the committed work ledger
# (testdata/ledger.json) holds on any machine. Under -race evaluation is
# several times slower, so a decision still made by the clock would show
# here. With the ledger's Human, YouTube, Cora and Twitter populations
# this step takes ~157 s on a 2-vCPU VM. TestModeVerdicts evaluates
# every pivot candidate four ways, so it stays out of this pattern and
# runs once, in the -race run above.
step "repeat runs agree under -race (smartpsi -run 'Deterministic|WorkLedger', -cpu 1,2)"
go test -race -count=5 -cpu 1,2 -run 'Deterministic|WorkLedger' ./internal/smartpsi/

step "go test ./... with collection enabled end to end (PSI_OBS=1)"
PSI_OBS=1 go test -count=1 ./...

step "go test ./... with deep invariant checking (PSI_INVARIANTS=1)"
PSI_INVARIANTS=1 go test -count=1 ./...

# One iteration each: keeps the forest benchmarks (the fit against its
# seed-fitter oracle, the flat walk against the per-tree walk), every
# psi-bench experiment on its tiny config (BenchmarkExperiments), the
# psi ablations (super pass, signature pruning) and the match baselines'
# benchmarks (TurboIso's region sizes among them) compiling and running.
step "benchmark smoke (forest fit, psi-bench experiments, psi ablations, match baselines)"
go test -run '^$' -bench 'TrainForest|ForestPredict' -benchtime 1x ./internal/ml/
go test -run '^$' -bench . -benchtime 1x ./internal/bench/ ./internal/psi/ ./internal/match/

# benchmark/ is a module of its own (it builds against this one through
# a replace directive), so ./... above never compiles it.
step "benchmark module (vet + tests against this tree's engine API)"
go -C benchmark vet ./...
go -C benchmark test ./...

step "observability suite (-race; overhead guard, /modelz)"
go test -race -count=1 -run 'TestObs|TestModelz|TestMerge' \
    ./internal/obs/ ./internal/psi/ ./internal/smartpsi/ ./cmd/psi-workload/

step "collected workload (PSI_OBS=1 psi-workload -evaluate prints the /modelz report)"
modelz="$(PSI_OBS=1 go run ./cmd/psi-workload -dataset cora -sizes 4 -count 4 -evaluate \
    -out /dev/null 2>&1)"
printf '%s\n' "$modelz"
grep -q 'model α (node type, §4.2) — confusion matrix' <<<"$modelz"
grep -Eq 'predicted plan vs training sweeps: [1-9][0-9]* observed, top-1 ' <<<"$modelz"

step "serving smoke (psi-serve + psi-loadgen: verify, overload shed, drain)"
./scripts/serve_smoke.sh

if [[ "$FUZZTIME" != "0" ]]; then
    step "fuzz smoke ($FUZZTIME per target)"
    go test ./internal/graph/ -run '^$' -fuzz 'FuzzLGRoundTrip' -fuzztime "$FUZZTIME"
    go test ./internal/difftest/ -run '^$' -fuzz 'FuzzAgreement' -fuzztime "$FUZZTIME"
    go test ./internal/ml/ -run '^$' -fuzz 'FuzzFlatWalk' -fuzztime "$FUZZTIME"
fi

step "OK"
