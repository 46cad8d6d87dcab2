#!/usr/bin/env bash
# check.sh — the repository's verification gate. CI runs exactly this
# script; run it locally before pushing. It chains:
#   build → gofmt → go vet → rrslint → tests → race tests → bench smoke
#   → fuzz smoke.
# and prints a per-step timing summary at the end (also on failure,
# with the failing step named — slow steps are the first suspects).
#
# Knobs:
#   FUZZTIME  (default 10s)  bounds each fuzz target; 0 skips the fuzz
#                            smoke entirely (e.g. on very slow machines).
#   RACE_ALL  (default 0)    1 runs `go test -race ./...` instead of the
#                            concurrency-sensitive shortlist; CI sets it
#                            on main-branch builds.
#   LINT_JSON (default rrslint-findings.json)  where the rrslint JSON
#                            findings land; CI uploads it as an artifact.
#   LINT_SARIF (default rrslint.sarif)  where the SARIF copy of the same
#                            findings lands; CI uploads it to code scanning.
#
# The bench smoke (-benchtime=1x) only proves every benchmark still
# compiles and runs, including the per-kernel-set benchmarks of
# internal/fft and internal/simd; perfbench/run.sh is the repository
# benchmark that does the real measurement.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"
RACE_ALL="${RACE_ALL:-0}"
LINT_JSON="${LINT_JSON:-rrslint-findings.json}"
LINT_SARIF="${LINT_SARIF:-rrslint.sarif}"

step_name=""
step_start=0
step_names=()
step_secs=()

step_begin() {
    step_name="$1"
    step_start=$SECONDS
    echo "== $step_name"
}

step_end() {
    step_names+=("$step_name")
    step_secs+=($((SECONDS - step_start)))
    step_name=""
}

timing_summary() {
    local status=$?
    echo "== step timings"
    local i
    for i in "${!step_names[@]}"; do
        printf '%6ds  %s\n' "${step_secs[$i]}" "${step_names[$i]}"
    done
    if [[ -n "$step_name" ]]; then
        printf '%6ds  %s (failed)\n' "$((SECONDS - step_start))" "$step_name"
    fi
    return "$status"
}
trap timing_summary EXIT

step_begin "build"
go build ./...
step_end

step_begin "gofmt"
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
step_end

step_begin "go vet"
go vet ./...
step_end

# The simd package ships hand-written MAC kernels for amd64 and arm64
# and FFT column-block stages for amd64, plus a pure-Go fallback
# behind -tags noasm; all
# three must keep compiling, and the fallback must keep passing the
# convolution agreement and FFT bit-exactness tests, no matter which
# architecture CI runs on.
step_begin "cross-compile (arm64) + noasm fallback tests"
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/simd ./internal/rng ./internal/fft ./internal/convgen ./internal/inhomo
go test -tags noasm ./internal/simd ./internal/rng ./internal/fft ./internal/convgen ./internal/inhomo
step_end

step_begin "rrslint (findings -> $LINT_JSON, SARIF -> $LINT_SARIF)"
if ! go run ./cmd/rrslint -json ./... > "$LINT_JSON"; then
    echo "rrslint findings:" >&2
    go run ./cmd/rrslint ./... >&2 || true
    # Still produce the SARIF report so code scanning sees the findings.
    go run ./cmd/rrslint -format=sarif ./... > "$LINT_SARIF" || true
    exit 1
fi
go run ./cmd/rrslint -format=sarif ./... > "$LINT_SARIF"
step_end

step_begin "go test"
go test ./...
step_end

if [[ "$RACE_ALL" == "1" ]]; then
    step_begin "go test -race (all packages)"
    go test -race ./...
else
    step_begin "go test -race (concurrency-sensitive packages)"
    go test -race ./internal/par ./internal/fft ./internal/convgen \
        ./internal/inhomo ./internal/rng ./internal/grid \
        ./internal/service ./internal/cluster ./cmd/rrsd ./cmd/rrsload
fi
step_end

# rrsd end-to-end smoke: boot the daemon on a free port, register the
# canonical fixture scene, and verify one f32 tile byte-for-byte. The
# SHA-256 is pinned on amd64 (the CI architecture); elsewhere FP/FMA
# differences may legally change the low bits, so we fall back to a
# determinism check (two fetches, one cold one cached, must agree).
# The pyramid route is exercised at z=0 (which must alias the golden
# free-window tile byte-for-byte, via the shared cache entry) and z=2,
# and /metrics must expose the per-level hit/miss counters. A second
# daemon with -gen-workers 4 must reproduce the golden tile exactly
# (the determinism contract detflow/floatreduce enforce statically).
# Finally SIGTERM must drain and exit 0 within the deadline.
step_begin "rrsd smoke (healthz, golden tile, pyramid route, worker determinism, graceful shutdown)"
GOLDEN_TILE_SHA256="c489266437db4399309159e8e96ed6998423d7d28d5740b2ce569abeb6c36688"
SMOKE_DIR="$(mktemp -d)"
go build -o "$SMOKE_DIR/rrsd" ./cmd/rrsd
"$SMOKE_DIR/rrsd" -addr 127.0.0.1:0 -portfile "$SMOKE_DIR/port" -tile-edge 64 -q &
RRSD_PID=$!
for _ in $(seq 1 100); do
    [[ -s "$SMOKE_DIR/port" ]] && break
    kill -0 "$RRSD_PID" 2>/dev/null || { echo "rrsd died on startup" >&2; exit 1; }
    sleep 0.1
done
RRSD_ADDR="$(cat "$SMOKE_DIR/port")"
curl -sf "http://$RRSD_ADDR/healthz" | grep -q ok
SCENE='{"nx":64,"ny":64,"method":"homogeneous","spectrum":{"family":"gaussian","h":1,"cl":8}}'
SCENE_ID="$(curl -sf -X POST --data "$SCENE" "http://$RRSD_ADDR/v1/scene" \
    | sed -E 's/.*"id":"([0-9a-f]+)".*/\1/')"
[[ "$SCENE_ID" == "63d26a72bd0db3592b40fdb04c733d4a" ]] \
    || { echo "scene id drifted: $SCENE_ID" >&2; exit 1; }
TILE_URL="http://$RRSD_ADDR/v1/scene/$SCENE_ID/tile/0,0,64x64?seed=1&format=f32"
curl -sf "$TILE_URL" -o "$SMOKE_DIR/tile.f32"
if [[ "$(uname -m)" == "x86_64" ]]; then
    echo "$GOLDEN_TILE_SHA256  $SMOKE_DIR/tile.f32" | sha256sum -c - >/dev/null
else
    curl -sf "$TILE_URL" -o "$SMOKE_DIR/tile2.f32"
    cmp "$SMOKE_DIR/tile.f32" "$SMOKE_DIR/tile2.f32"
fi
curl -sf "http://$RRSD_ADDR/metrics" | grep -q 'rrsd_requests_total{route="tile",code="200"} 1'
# Pyramid route: tile 0/0,0 at -tile-edge 64 covers the same lattice
# window as the golden fetch above, so it must be served from the shared
# cache entry (X-Cache: hit) with identical bytes.
curl -sf -D "$SMOKE_DIR/z0.hdr" \
    "http://$RRSD_ADDR/v1/scene/$SCENE_ID/tile/0/0,0?seed=1&format=f32" \
    -o "$SMOKE_DIR/z0.f32"
cmp "$SMOKE_DIR/tile.f32" "$SMOKE_DIR/z0.f32"
grep -qi '^X-Cache: hit' "$SMOKE_DIR/z0.hdr"
# A z=2 tile renders the decimated lattice: same byte size, new kernel.
curl -sf "http://$RRSD_ADDR/v1/scene/$SCENE_ID/tile/2/0,0?seed=1&format=f32" \
    -o "$SMOKE_DIR/z2.f32"
[[ "$(wc -c < "$SMOKE_DIR/z2.f32")" == "16384" ]] \
    || { echo "z=2 tile is $(wc -c < "$SMOKE_DIR/z2.f32") bytes, want 16384" >&2; exit 1; }
METRICS="$(curl -sf "http://$RRSD_ADDR/metrics")"
grep -q 'rrsd_tile_level_hits_total{level="0"}' <<<"$METRICS"
grep -q 'rrsd_tile_level_misses_total{level="2"} 1' <<<"$METRICS"
# Determinism across worker counts: the detflow/floatreduce contract,
# checked dynamically. A second daemon with -gen-workers 4 must produce
# the golden tile byte-for-byte identical to the single-worker render.
"$SMOKE_DIR/rrsd" -addr 127.0.0.1:0 -portfile "$SMOKE_DIR/port4" -tile-edge 64 -gen-workers 4 -q &
RRSD4_PID=$!
for _ in $(seq 1 100); do
    [[ -s "$SMOKE_DIR/port4" ]] && break
    kill -0 "$RRSD4_PID" 2>/dev/null || { echo "rrsd (-gen-workers 4) died on startup" >&2; exit 1; }
    sleep 0.1
done
RRSD4_ADDR="$(cat "$SMOKE_DIR/port4")"
SCENE_ID4="$(curl -sf -X POST --data "$SCENE" "http://$RRSD4_ADDR/v1/scene" \
    | sed -E 's/.*"id":"([0-9a-f]+)".*/\1/')"
[[ "$SCENE_ID4" == "$SCENE_ID" ]] || { echo "scene id depends on workers: $SCENE_ID4" >&2; exit 1; }
curl -sf "http://$RRSD4_ADDR/v1/scene/$SCENE_ID4/tile/0,0,64x64?seed=1&format=f32" \
    -o "$SMOKE_DIR/tile-w4.f32"
cmp "$SMOKE_DIR/tile.f32" "$SMOKE_DIR/tile-w4.f32" \
    || { echo "tile bytes depend on -gen-workers" >&2; exit 1; }
kill -TERM "$RRSD4_PID"
wait "$RRSD4_PID" || { echo "rrsd (-gen-workers 4) exited non-zero after SIGTERM" >&2; exit 1; }
kill -TERM "$RRSD_PID"
SHUTDOWN_OK=0
for _ in $(seq 1 100); do
    if ! kill -0 "$RRSD_PID" 2>/dev/null; then SHUTDOWN_OK=1; break; fi
    sleep 0.1
done
[[ "$SHUTDOWN_OK" == "1" ]] || { echo "rrsd did not exit within 10s of SIGTERM" >&2; kill -9 "$RRSD_PID"; exit 1; }
wait "$RRSD_PID" || { echo "rrsd exited non-zero after SIGTERM" >&2; exit 1; }
rm -rf "$SMOKE_DIR"
step_end

# Cluster smoke: three clustered daemons assemble through a peers file
# (ports are only known after every member binds), a scene registered on
# node A fans out to the whole fleet, and the golden tile fetched
# through node B — whichever shard owns it — is byte-identical to node
# A's render. Finally every node must drain and exit 0 on SIGTERM.
step_begin "cluster smoke (3-node assembly, scene fan-out, cross-node golden tile, drain)"
CL_DIR="$(mktemp -d)"
go build -o "$CL_DIR/rrsd" ./cmd/rrsd
echo '[]' > "$CL_DIR/peers.json"
CL_PIDS=()
for n in a b c; do
    "$CL_DIR/rrsd" -addr 127.0.0.1:0 -portfile "$CL_DIR/port.$n" \
        -node "$n" -peers-file "$CL_DIR/peers.json" -probe-interval 200ms \
        -tile-edge 64 -q &
    CL_PIDS+=($!)
done
for n in a b c; do
    for _ in $(seq 1 100); do
        [[ -s "$CL_DIR/port.$n" ]] && break
        sleep 0.1
    done
    [[ -s "$CL_DIR/port.$n" ]] || { echo "cluster node $n never bound" >&2; exit 1; }
done
CL_A="$(cat "$CL_DIR/port.a")"
CL_B="$(cat "$CL_DIR/port.b")"
CL_C="$(cat "$CL_DIR/port.c")"
cat > "$CL_DIR/peers.json" <<EOF
[{"name":"a","url":"http://$CL_A"},{"name":"b","url":"http://$CL_B"},{"name":"c","url":"http://$CL_C"}]
EOF
# Wait for every node's membership view to reach three peers.
for n in a b c; do
    ADDR="$(cat "$CL_DIR/port.$n")"
    CONVERGED=0
    for _ in $(seq 1 100); do
        if [[ "$(curl -sf "http://$ADDR/v1/cluster" | grep -o '"name"' | wc -l)" == "3" ]]; then
            CONVERGED=1; break
        fi
        sleep 0.1
    done
    [[ "$CONVERGED" == "1" ]] || { echo "node $n never converged on the 3-peer map" >&2; exit 1; }
done
SCENE='{"nx":64,"ny":64,"method":"homogeneous","spectrum":{"family":"gaussian","h":1,"cl":8}}'
CL_REG="$(curl -sf -X POST --data "$SCENE" "http://$CL_A/v1/scene")"
CL_ID="$(sed -E 's/.*"id":"([0-9a-f]+)".*/\1/' <<<"$CL_REG")"
[[ "$CL_ID" == "63d26a72bd0db3592b40fdb04c733d4a" ]] \
    || { echo "clustered scene id drifted: $CL_ID" >&2; exit 1; }
grep -q '"replicated":2' <<<"$CL_REG" \
    || { echo "fan-out incomplete: $CL_REG" >&2; exit 1; }
# The fan-out made the scene servable on every node without re-posting.
curl -sf "http://$CL_B/v1/scene/$CL_ID" > /dev/null
curl -sf "http://$CL_C/v1/scene/$CL_ID" > /dev/null
# The golden tile through node B must match node A's bytes exactly,
# whichever shard owns the key (proxy and local render are equivalent).
CL_TILE="/v1/scene/$CL_ID/tile/0,0,64x64?seed=1&format=f32"
curl -sf -D "$CL_DIR/b.hdr" "http://$CL_B$CL_TILE" -o "$CL_DIR/tile-b.f32"
curl -sf "http://$CL_A$CL_TILE" -o "$CL_DIR/tile-a.f32"
cmp "$CL_DIR/tile-a.f32" "$CL_DIR/tile-b.f32" \
    || { echo "tile bytes differ across nodes" >&2; exit 1; }
if [[ "$(uname -m)" == "x86_64" ]]; then
    echo "$GOLDEN_TILE_SHA256  $CL_DIR/tile-b.f32" | sha256sum -c - >/dev/null
fi
grep -qi '^X-RRS-Served-By:' "$CL_DIR/b.hdr" \
    || { echo "cluster headers missing on tile response" >&2; exit 1; }
for pid in "${CL_PIDS[@]}"; do kill -TERM "$pid"; done
CL_DEADLINE=$((SECONDS + 15))
for pid in "${CL_PIDS[@]}"; do
    while kill -0 "$pid" 2>/dev/null; do
        (( SECONDS < CL_DEADLINE )) || { echo "cluster node did not exit within deadline" >&2; kill -9 "${CL_PIDS[@]}" 2>/dev/null; exit 1; }
        sleep 0.1
    done
    wait "$pid" || { echo "cluster node exited non-zero after SIGTERM" >&2; exit 1; }
done
rm -rf "$CL_DIR"
step_end

step_begin "bench smoke (compile + one iteration per benchmark)"
go test -run='^$' -bench=. -benchtime=1x . ./internal/fft ./internal/simd > /dev/null
step_end

if [[ "$FUZZTIME" != "0" ]]; then
    step_begin "fuzz smoke ($FUZZTIME each)"
    go test -run='^$' -fuzz=FuzzRead -fuzztime="$FUZZTIME" ./internal/grid
    go test -run='^$' -fuzz=FuzzParseScene -fuzztime="$FUZZTIME" ./internal/core
    go test -run='^$' -fuzz=FuzzConv32Agreement -fuzztime="$FUZZTIME" ./internal/convgen
    go test -run='^$' -fuzz=FuzzSupportMaskPlate -fuzztime="$FUZZTIME" ./internal/inhomo
    go test -run='^$' -fuzz=FuzzSupportMaskPoint -fuzztime="$FUZZTIME" ./internal/inhomo
    go test -run='^$' -fuzz=FuzzCFG -fuzztime="$FUZZTIME" ./internal/lint
    go test -run='^$' -fuzz=FuzzSummary -fuzztime="$FUZZTIME" ./internal/lint
    go test -run='^$' -fuzz=FuzzTaint -fuzztime="$FUZZTIME" ./internal/lint
    step_end
fi

echo "== all checks passed"
