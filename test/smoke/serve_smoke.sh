#!/usr/bin/env bash
# Serve daemon smoke: start the daemon, synthesize cold, check that a
# synthesize and a pareto past their deadline answer degraded, kill -9
# mid-campaign and corrupt the journal tail as a crash would, restart,
# and assert that the torn tail is diagnosed, the warm-cache request
# hits, and its costs are byte-identical to the cold run.
#
# Invoked by CI and by the `smoke` dune alias (`dune build @smoke`).
# Args: [BIN [MODEL [TECH]]] -- defaults assume the repository root.
set -euo pipefail

BIN=${1:-./_build/default/bin/main.exe}
MODEL=${2:-examples/models/codec.spi}
TECH=${3:-examples/models/codec.tech}

# everything lives in a scratch directory so the smoke is rerunnable
# and never litters the tree; /tmp keeps the unix socket path short
WORK=$(mktemp -d "${TMPDIR:-/tmp}/serve-smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
SOCK="$WORK/serve.sock"
DB="$WORK/serve-journal.db"
METRICS="$WORK/serve-metrics.json"

"$BIN" serve --socket "$SOCK" --store "$DB" --metrics "$METRICS" -j 2 &
SERVER=$!
sleep 1

"$BIN" request --socket "$SOCK" ping
"$BIN" request --socket "$SOCK" synthesize --file "$MODEL" --tech "$TECH" \
  > "$WORK/serve-cold.json"
"$BIN" request --socket "$SOCK" synthesize --file "$MODEL" --tech "$TECH" \
  --deadline-ms 0 | grep -q '"degraded":true'
"$BIN" request --socket "$SOCK" pareto --file "$MODEL" --tech "$TECH" \
  --deadline-ms 0 | grep -q '"degraded":true'

# leave a request in flight, then crash the daemon hard and tear the
# journal tail exactly as an interrupted append would
"$BIN" request --socket "$SOCK" synthesize --file "$MODEL" --tech "$TECH" \
  --attempts 1 --timeout 2 >/dev/null 2>&1 &
kill -9 "$SERVER"
wait "$SERVER" 2>/dev/null || true
printf 'deadbeefdeadbeef 99 {"torn":' >> "$DB"

"$BIN" serve --socket "$SOCK" --store "$DB" --metrics "$METRICS" -j 2 \
  2> "$WORK/serve-recovery.log" &
SERVER=$!
sleep 1
grep -q 'torn write' "$WORK/serve-recovery.log"

"$BIN" request --socket "$SOCK" synthesize --file "$MODEL" --tech "$TECH" \
  > "$WORK/serve-warm.json"
grep -q '"warm":true' "$WORK/serve-warm.json"
grep -o '"cost":{[^}]*}' "$WORK/serve-cold.json" > "$WORK/serve-cold-cost.txt"
grep -o '"cost":{[^}]*}' "$WORK/serve-warm.json" > "$WORK/serve-warm-cost.txt"
diff -u "$WORK/serve-cold-cost.txt" "$WORK/serve-warm-cost.txt"

"$BIN" request --socket "$SOCK" shutdown
wait "$SERVER"
test -s "$METRICS"
echo "serve smoke: OK"
