#!/usr/bin/env bash
# serve_smoke.sh boots the real serving stack end to end and asserts
# the two behaviours the server exists for:
#
#   1. correctness under normal load — psi-serve on an ephemeral port,
#      psi-loadgen -verify cross-checks every served binding set
#      against a model-free PSI evaluation and requires bindings;
#   2. load shedding under overload — a workers=1/queue=0 server must
#      answer some of a 1.5s 16-way burst with 429 (-require-shed) while
#      everything it does accept stays correct;
#   3. SLO alerting — the healthy pass must finish with no firing
#      alert (-forbid-alert availability) while the overload pass must
#      drive the availability burn rate to "firing"
#      (-require-alert availability), and /alertz?format=json must name
#      server_shed_total in availability's fast-window breakdown;
#   4. incident forensics — the overload pass runs with -bundle-dir, so
#      the firing alert must auto-capture a diagnostic bundle; the
#      bundle's JSON entries must validate, psi-bundle report must name
#      the firing objective, and a retained profile in profiles.json
#      must carry a request ID and a nonzero model-β tally;
#   5. workload analytics — a Zipfian loadgen pass (-skew zipf:2
#      -require-hot-shape) must surface its hot query's canonical
#      fingerprint at rank 1 on /queryz with a nonzero repeat-hit
#      estimate; the same fingerprint must resolve at
#      /profilez?fingerprint= and appear in the auto-captured bundle's
#      workload.json, and psi-bundle report must render the top-shapes
#      section; the repeats must also have been served from the engine's
#      prepared-query cache (smartpsi_prepared_hits_total > 0 on
#      /metrics.json);
#   6. sharded serving — a 2-shard fleet (two psi-serve shard nodes
#      plus a coordinator) must answer exactly what the model-free
#      reference computes (-verify) on size-4 and on size-7 (deep-pivot)
#      queries, and the coordinator's /queryz must sum the shards'
#      model-α picks (a shape with mode_optimistic + mode_pessimistic >
#      0); then it must keep answering after one shard is SIGKILLed: 200s
#      flagged partial (-require-partial), which burn the availability
#      SLO until the alert fires (-require-alert availability);
#
# then sends SIGTERM and requires a clean drain (exit 0). psi-loadgen
# exits non-zero on any unexpected 5xx, so "the script passed" also
# means "zero 500/502/503 were served".
#
# The auto-captured bundle is left at $SMOKE_BUNDLE_OUT (default
# /tmp/psi-smoke-bundle.zip) for CI to archive as an artifact.
#
# Usage: ./scripts/serve_smoke.sh  (run from anywhere; ~30s)
set -euo pipefail

cd "$(dirname "$0")/.."

work="$(mktemp -d)"
serve_pid=""
shard_pids=()
cleanup() {
    for p in "$serve_pid" ${shard_pids[@]+"${shard_pids[@]}"}; do
        if [[ -n "$p" ]] && kill -0 "$p" 2>/dev/null; then
            kill -KILL "$p" 2>/dev/null || true
        fi
    done
    rm -rf "$work"
}
trap cleanup EXIT

step() { printf '\n-- %s\n' "$*"; }

step "build"
go build -o "$work/psi-serve" ./cmd/psi-serve
go build -o "$work/psi-loadgen" ./cmd/psi-loadgen
go build -o "$work/psi-bundle" ./cmd/psi-bundle
go build -o "$work/datagen" ./cmd/datagen
go build -o "$work/jsoncheck" ./scripts/jsoncheck

step "dataset"
"$work/datagen" -dataset yeast -out "$work/g.lg" >/dev/null

wait_for_addr() {
    local file="$1" tries=0
    until [[ -s "$file" ]]; do
        tries=$((tries + 1))
        if [[ "$tries" -gt 100 ]]; then
            echo "server never published its address" >&2
            return 1
        fi
        sleep 0.1
    done
    cat "$file"
}

# start_server launches psi-serve with the given extra flags and sets
# the globals $serve_pid and $addr. Not a command substitution: stdout
# must not be captured (the backgrounded server would hold the pipe
# open) and serve_pid must land in the parent shell.
start_server() {
    local addr_file="$work/addr"
    rm -f "$addr_file"
    "$work/psi-serve" -graph "$work/g.lg" -addr 127.0.0.1:0 \
        -addr-file "$addr_file" "$@" >/dev/null 2>"$work/serve.log" &
    serve_pid=$!
    addr="$(wait_for_addr "$addr_file")"
}

stop_server() { # clean SIGTERM drain must exit 0
    kill -TERM "$serve_pid"
    local rc=0
    wait "$serve_pid" || rc=$?
    serve_pid=""
    if [[ "$rc" -ne 0 ]]; then
        echo "psi-serve exited $rc after SIGTERM; log:" >&2
        cat "$work/serve.log" >&2
        return 1
    fi
}

step "correctness pass (closed loop, -verify, bindings required, no firing alert)"
start_server -workers 2 -queue 32 \
    -sample-interval 250ms -slo-availability 0.99
"$work/psi-loadgen" -addr "$addr" -graph "$work/g.lg" \
    -concurrency 4 -requests 60 -timeout-ms 5000 \
    -verify -min-bindings 1 -json "$work/load.json" \
    -forbid-alert availability
"$work/psi-loadgen" -addr "$addr" -graph "$work/g.lg" \
    -batch 4 -requests 10 -timeout-ms 5000 -min-bindings 1
grep -q '"schema": 2' "$work/load.json"
step "drain"
stop_server

step "overload server (workers=1, shed-immediately, bundle auto-capture armed)"
start_server -workers 1 -queue 0 \
    -sample-interval 100ms -slo-availability 0.99 \
    -slo-fast-window 1s -slo-slow-window 3s -slo-burn-factor 2 -slo-for 0s \
    -bundle-dir "$work/bundles" -bundle-cooldown 1s -bundle-keep 4

step "skewed load surfaces its hot shape at /queryz (zipf mix, one worker, no shedding)"
# Concurrency 1 against the one worker: nothing sheds, so the alert
# stays quiet and every request lands in the workload sketch. The pass
# prints "hot shape: <fp> ..." on success; capture the fingerprint.
# From its third sighting a query is served warm (~0.08 ms here), while
# a cold query that trains costs 1-2 ms, more on a busy box. At 60
# requests the hot shape's 36 led a shape seen once by only ~2x in cost;
# 600 requests make its lead over any other shape ~3x, however long
# that shape's cold runs take.
"$work/psi-loadgen" -addr "$addr" -graph "$work/g.lg" \
    -concurrency 1 -requests 600 -timeout-ms 5000 -min-bindings 1 \
    -skew zipf:2 -require-hot-shape | tee "$work/skew.out"
fp="$(sed -n 's/^hot shape: \([0-9a-f]\{16\}\).*/\1/p' "$work/skew.out")"
if [[ -z "$fp" ]]; then
    echo "loadgen -require-hot-shape printed no hot-shape fingerprint" >&2
    exit 1
fi

step "the repeated queries were served warm (prepared-query cache hits on /metrics.json)"
if ! "$work/jsoncheck" -print -url "http://$addr/metrics.json" |
    grep -Eq '"smartpsi_prepared_hits_total": [1-9]'; then
    echo "zipf pass produced no smartpsi_prepared_hits_total" >&2
    exit 1
fi

step "/queryz JSON is well-formed; /profilez pivots by the hot fingerprint"
"$work/jsoncheck" -url "http://$addr/queryz?format=json"
"$work/jsoncheck" -url "http://$addr/profilez?fingerprint=$fp&format=json"

step "shed burst (16-way: 429s, a firing availability alert, and an auto-captured bundle required)"
# Driven by time, not by a request count: on a fast box a fixed burst is
# over before the 100ms sampler has ticked twice, and the alert, which
# is computed from sampled rates, cannot fire. 1.5s spans the 1s fast
# window and some fifteen ticks.
"$work/psi-loadgen" -addr "$addr" -graph "$work/g.lg" \
    -concurrency 16 -duration 1500ms -timeout-ms 5000 \
    -require-shed -min-bindings 1 \
    -require-alert availability

step "/alertz names the counter that burned (server_shed_total in availability's breakdown)"
# Read straight after the burst: the 1s fast window still holds its sheds.
"$work/jsoncheck" -print -url "http://$addr/alertz?format=json" >"$work/alertz.json"
if ! tr -d ' \n' <"$work/alertz.json" |
    grep -Eq '"name":"availability"[^{}]*"bad_fast_deltas":\{[^{}]*"server_shed_total":[1-9]'; then
    echo "/alertz does not name server_shed_total in availability's breakdown:" >&2
    cat "$work/alertz.json" >&2
    exit 1
fi

step "alert auto-captured a diagnostic bundle"
# The capture runs on the sampler goroutine at the firing transition;
# give it a moment to land before asserting.
bundle=""
for _ in $(seq 1 50); do
    bundle="$(ls "$work/bundles"/bundle-*.zip 2>/dev/null | tail -n 1 || true)"
    [[ -n "$bundle" ]] && break
    sleep 0.1
done
if [[ -z "$bundle" ]]; then
    echo "no bundle auto-captured in $work/bundles; server log:" >&2
    cat "$work/serve.log" >&2
    exit 1
fi
echo "captured: $bundle"

step "bundle entries are well-formed JSON"
"$work/psi-bundle" list "$bundle"
for entry in manifest.json metrics.json alertz.json profiles.json modelz.json workload.json; do
    "$work/psi-bundle" cat "$bundle" "$entry" | "$work/jsoncheck"
done
"$work/psi-bundle" cat "$bundle" manifest.json | grep -q '"reason": "alert"'
"$work/psi-bundle" cat "$bundle" manifest.json | grep -q '"objective": "availability"'

step "bundle workload.json carries the hot fingerprint"
"$work/psi-bundle" cat "$bundle" workload.json | grep -q "$fp"

step "incident report names the firing objective"
"$work/psi-bundle" report "$bundle" | tee "$work/report.txt"
grep -q 'objective availability' "$work/report.txt"
grep -q 'top shapes by cost' "$work/report.txt"

step "a retained profile carries a request ID and a nonzero model-β tally"
# A profile's request_id precedes its beta_scored with only scalar
# fields between them, so one brace-free match stays inside one profile.
if ! "$work/psi-bundle" cat "$bundle" profiles.json | tr -d ' \n' |
    grep -Eq '"request_id":"[^"]+"[^{}]*"beta_scored":[1-9]'; then
    echo "no profile in profiles.json carries both a request ID and a β tally" >&2
    exit 1
fi

step "loadgen -bundle-on-fail saves a bundle when its assertion fails"
# -forbid-alert availability must fail against the firing server; the
# failure must leave a bundle behind and the original error must win.
if "$work/psi-loadgen" -addr "$addr" -graph "$work/g.lg" \
    -requests 4 -timeout-ms 5000 \
    -forbid-alert availability -bundle-on-fail "$work/failed.zip"; then
    echo "-forbid-alert availability unexpectedly passed on an overloaded server" >&2
    exit 1
fi
"$work/psi-bundle" list "$work/failed.zip" >/dev/null

step "drain"
stop_server

step "fleet: boot 2 shard nodes + coordinator"
# Each shard node loads the same graph file and derives the same
# deterministic ownership partition; the coordinator holds no graph and
# scatters over HTTP. Address order IS shard-index order.
shard_addrs=()
for i in 0 1; do
    rm -f "$work/shard$i.addr"
    "$work/psi-serve" -graph "$work/g.lg" -shard-of 2 -shard-index "$i" \
        -addr 127.0.0.1:0 -addr-file "$work/shard$i.addr" -workers 2 \
        >/dev/null 2>"$work/shard$i.log" &
    shard_pids[$i]=$!
done
for i in 0 1; do
    shard_addrs[$i]="$(wait_for_addr "$work/shard$i.addr")"
done
rm -f "$work/addr"
"$work/psi-serve" -coordinator \
    -shard-addrs "${shard_addrs[0]},${shard_addrs[1]}" -shard-probe 200ms \
    -addr 127.0.0.1:0 -addr-file "$work/addr" -workers 4 \
    -sample-interval 100ms -slo-availability 0.99 \
    -slo-fast-window 1s -slo-slow-window 3s -slo-burn-factor 2 -slo-for 0s \
    >/dev/null 2>"$work/serve.log" &
serve_pid=$!
addr="$(wait_for_addr "$work/addr")"

step "fleet correctness (scattered answers match the model-free reference)"
"$work/psi-loadgen" -addr "$addr" -graph "$work/g.lg" \
    -concurrency 4 -requests 40 -timeout-ms 5000 \
    -verify -min-bindings 1 -forbid-alert availability
# Size-7 queries put the pivot up to six hops from a match node; every
# shard holds the whole graph, so none is too deep to answer.
"$work/psi-loadgen" -addr "$addr" -graph "$work/g.lg" \
    -concurrency 4 -requests 40 -timeout-ms 5000 -query-size 7 \
    -verify -min-bindings 1 -forbid-alert availability
"$work/jsoncheck" -url "http://$addr/readyz"

step "fleet /queryz sums the shards' decisions (coordinator mode mix > 0)"
# Shard nodes answer the coordinator with their counts object, so its
# workload sketch sees every shard's model-α picks.
if ! "$work/jsoncheck" -print -url "http://$addr/queryz?format=json" |
    grep -Eq '"mode_(optimistic|pessimistic)": [1-9]'; then
    echo "coordinator /queryz has no shape with mode_optimistic + mode_pessimistic > 0" >&2
    exit 1
fi

step "fleet shard loss: SIGKILL shard 1 -> flagged partials, firing availability alert"
kill -KILL "${shard_pids[1]}"
wait "${shard_pids[1]}" 2>/dev/null || true
shard_pids[1]=""
# Time-driven for the same reason as the shed burst above.
"$work/psi-loadgen" -addr "$addr" -graph "$work/g.lg" \
    -concurrency 4 -duration 1500ms -timeout-ms 5000 \
    -require-partial -require-alert availability

step "fleet drain (coordinator, then the surviving shard)"
stop_server
kill -TERM "${shard_pids[0]}"
rc=0
wait "${shard_pids[0]}" || rc=$?
if [[ "$rc" -ne 0 ]]; then
    echo "shard 0 exited $rc after SIGTERM; log:" >&2
    cat "$work/shard0.log" >&2
    exit 1
fi
shard_pids[0]=""

# Leave the alert-captured bundle where CI can archive it.
cp "$bundle" "${SMOKE_BUNDLE_OUT:-/tmp/psi-smoke-bundle.zip}"

printf '\n-- serve smoke OK\n'
