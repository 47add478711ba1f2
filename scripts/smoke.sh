#!/usr/bin/env bash
# End-to-end smoke test: generate a synthetic collection, persist it as a
# bundle, serve it with axqlserve, and exercise the HTTP surface — the CI
# guard that the binaries compose into a working service.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -9 "$server_pid" 2>/dev/null || true
    fi
    # CI sets SMOKE_LOG_DIR to keep the server logs as workflow artifacts.
    if [ -n "${SMOKE_LOG_DIR:-}" ]; then
        mkdir -p "$SMOKE_LOG_DIR"
        cp "$workdir"/*.log "$SMOKE_LOG_DIR"/ 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "smoke: FAIL: $1" >&2
    [ -f "$workdir/server.log" ] && sed 's/^/smoke: server: /' "$workdir/server.log" >&2
    exit 1
}

echo "smoke: building binaries"
go build -o "$workdir" ./cmd/axqlgen ./cmd/axqlindex ./cmd/axqlserve ./cmd/axql

echo "smoke: generating a small collection"
"$workdir/axqlgen" -seed 7 -elements 2000 -words 8000 -names 20 -vocab 200 \
    -out "$workdir/data.xml" -q

# Pick the most frequent element name so the smoke query is guaranteed to
# have matches regardless of generator internals.
name=$(grep -o '<n[0-9]*' "$workdir/data.xml" | sort | uniq -c | sort -rn |
    head -1 | tr -d ' <' | sed 's/^[0-9]*//')
[ -n "$name" ] || fail "no element names found in generated data"
echo "smoke: querying for element <$name>"

echo "smoke: indexing into a bundle (with -mmap verification reopen)"
"$workdir/axqlindex" -out "$workdir/c.axdb" -postings "$workdir/c.postings" \
    -secondary "$workdir/c.sec" -mmap -q "$workdir/data.xml"
[ -f "$workdir/c.axdb.bundle" ] || fail "bundle manifest not written"

echo "smoke: starting axqlserve over the bundle"
"$workdir/axqlserve" -db "$workdir/c.axdb.bundle" -addr 127.0.0.1:0 -log text \
    >/dev/null 2>"$workdir/server.log" &
server_pid=$!

base=""
for _ in $(seq 1 100); do
    if addr=$(grep -o 'listening on [^ ]*' "$workdir/server.log" 2>/dev/null | head -1); then
        base="http://${addr#listening on }"
        break
    fi
    kill -0 "$server_pid" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
done
[ -n "$base" ] || fail "server never reported its address"

echo "smoke: checking /healthz"
health=$(curl -sSf "$base/healthz")
echo "$health" | grep -q '"status":"ok"' || fail "unexpected /healthz body: $health"

echo "smoke: querying /query"
body="{\"query\":\"$name\",\"n\":5}"
response=$(curl -sSf -X POST -H 'Content-Type: application/json' -d "$body" "$base/query")
echo "$response" | grep -q '"rank":1' || fail "no ranked results in: $response"
echo "$response" | grep -q '"cost":' || fail "no costs in: $response"
echo "$response" | grep -q '"cached":false' || fail "first query claimed cached: $response"

echo "smoke: repeating the query to hit the result cache"
response=$(curl -sSf -X POST -H 'Content-Type: application/json' -d "$body" "$base/query")
echo "$response" | grep -q '"cached":true' || fail "repeat query missed the cache: $response"

echo "smoke: checking /metrics"
metrics=$(curl -sSf "$base/metrics")
echo "$metrics" | grep -Eq 'axql_result_cache_hits_total [1-9]' ||
    fail "no cache hits reported in /metrics"
echo "$metrics" | grep -q 'axql_requests_total{endpoint="/query",code="200"} 2' ||
    fail "request counters wrong in /metrics"

echo "smoke: malformed query returns 400 with a position"
status=$(curl -s -o "$workdir/err.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' -d '{"query":"a[b[","n":5}' "$base/query")
[ "$status" = "400" ] || fail "malformed query returned $status"
grep -q '"position"' "$workdir/err.json" || fail "400 body lacks parser position"

echo "smoke: graceful shutdown on SIGTERM"
kill -TERM "$server_pid"
for _ in $(seq 1 100); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
    fail "server still running 10s after SIGTERM"
fi
wait "$server_pid" || fail "server exited non-zero"
server_pid=""
grep -q 'shutting down' "$workdir/server.log" || fail "no drain message logged"

# --- mmap: the same bundle served from memory mappings ----------------------

echo "smoke: mmap: query parity between pager and mmap reads"
"$workdir/axql" -db "$workdir/c.axdb.bundle" -n 5 "$name" >"$workdir/pager.out" ||
    fail "axql over the bundle (pager) failed"
"$workdir/axql" -db "$workdir/c.axdb.bundle" -n 5 -mmap "$name" >"$workdir/mmap.out" ||
    fail "axql over the bundle (-mmap) failed"
cmp -s "$workdir/pager.out" "$workdir/mmap.out" ||
    fail "mmap ranking differs from pager ranking: $(diff "$workdir/pager.out" "$workdir/mmap.out" | head -5)"

echo "smoke: mmap: serving the bundle with -mmap"
: >"$workdir/server.log"
"$workdir/axqlserve" -db "$workdir/c.axdb.bundle" -addr 127.0.0.1:0 -log text -mmap \
    >/dev/null 2>"$workdir/server.log" &
server_pid=$!

base=""
for _ in $(seq 1 100); do
    if addr=$(grep -o 'listening on [^ ]*' "$workdir/server.log" 2>/dev/null | head -1); then
        base="http://${addr#listening on }"
        break
    fi
    kill -0 "$server_pid" 2>/dev/null || fail "mmap server exited during startup"
    sleep 0.1
done
[ -n "$base" ] || fail "mmap server never reported its address"

response=$(curl -sSf -X POST -H 'Content-Type: application/json' -d "$body" "$base/query")
echo "$response" | grep -q '"rank":1' || fail "no ranked results from the mmap server: $response"

kill -TERM "$server_pid"
for _ in $(seq 1 100); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
done
wait "$server_pid" || fail "mmap server exited non-zero"
server_pid=""

# --- upgrade rule: older formats are refused; re-indexing replaces them ------

echo "smoke: upgrade: a bundle of an older format version is refused"
{ echo 'axql-bundle v5'; tail -n +2 "$workdir/c.axdb.bundle"; } >"$workdir/old.bundle"
mv "$workdir/old.bundle" "$workdir/c.axdb.bundle"
printf 'AXQLBT01' | dd of="$workdir/c.postings" bs=1 conv=notrunc 2>/dev/null
if "$workdir/axql" -db "$workdir/c.axdb.bundle" -n 5 "$name" >/dev/null 2>"$workdir/old.err"; then
    fail "axql answered from an axql-bundle v5 manifest"
fi
grep -q 'axqlindex' "$workdir/old.err" ||
    fail "axql's version error does not name axqlindex: $(cat "$workdir/old.err")"
if timeout 10 "$workdir/axqlserve" -db "$workdir/c.axdb.bundle" -addr 127.0.0.1:0 \
    >/dev/null 2>"$workdir/old.err"; then
    fail "axqlserve served an axql-bundle v5 manifest"
fi
grep -q 'axqlindex' "$workdir/old.err" ||
    fail "axqlserve's version error does not name axqlindex: $(cat "$workdir/old.err")"

echo "smoke: upgrade: re-running axqlindex onto the same paths"
"$workdir/axqlindex" -out "$workdir/c.axdb" -postings "$workdir/c.postings" \
    -secondary "$workdir/c.sec" -mmap -q "$workdir/data.xml" ||
    fail "axqlindex did not replace the old-format files"
head -1 "$workdir/c.axdb.bundle" | grep -qx 'axql-bundle v6' ||
    fail "re-indexed bundle is not an axql-bundle v6 manifest"
"$workdir/axql" -db "$workdir/c.axdb.bundle" -n 5 "$name" >"$workdir/upgraded.out" ||
    fail "axql over the re-indexed bundle failed"
cmp -s "$workdir/pager.out" "$workdir/upgraded.out" ||
    fail "re-indexed ranking differs: $(diff "$workdir/pager.out" "$workdir/upgraded.out" | head -5)"

# --- multi-document corpus: index with -shard-docs, query, serve -----------

echo "smoke: corpus: generating three documents"
for i in 1 2 3; do
    "$workdir/axqlgen" -seed $((i + 20)) -elements 800 -words 3000 -names 20 \
        -vocab 200 -out "$workdir/doc$i.xml" -q
done

echo "smoke: corpus: indexing with -shard-docs"
"$workdir/axqlindex" -out "$workdir/corpus.axql" -shard-docs 1 -q \
    "$workdir/doc1.xml" "$workdir/doc2.xml" "$workdir/doc3.xml"
[ -f "$workdir/corpus.axql" ] || fail "corpus bundle not written"
head -1 "$workdir/corpus.axql" | grep -qx 'axql-bundle v6' ||
    fail "corpus bundle is not an axql-bundle v6 manifest"

cname=$(grep -o '<n[0-9]*' "$workdir/doc1.xml" | sort | uniq -c | sort -rn |
    head -1 | tr -d ' <' | sed 's/^[0-9]*//')
[ -n "$cname" ] || fail "no element names found in corpus data"

echo "smoke: corpus: querying <$cname> via axql"
"$workdir/axql" -db "$workdir/corpus.axql" -n 3 "$cname" >"$workdir/corpus.out" ||
    fail "axql over corpus bundle failed"
grep -q 'doc1.xml' "$workdir/corpus.out" ||
    fail "corpus ranking lacks document names: $(cat "$workdir/corpus.out")"

echo "smoke: corpus: starting axqlserve over the corpus bundle (with -record)"
: >"$workdir/server.log"
"$workdir/axqlserve" -db "$workdir/corpus.axql" -addr 127.0.0.1:0 -log text \
    -record "$workdir/server_queries.jsonl" \
    >/dev/null 2>"$workdir/server.log" &
server_pid=$!

base=""
for _ in $(seq 1 100); do
    if addr=$(grep -o 'listening on [^ ]*' "$workdir/server.log" 2>/dev/null | head -1); then
        base="http://${addr#listening on }"
        break
    fi
    kill -0 "$server_pid" 2>/dev/null || fail "corpus server exited during startup"
    sleep 0.1
done
[ -n "$base" ] || fail "corpus server never reported its address"

echo "smoke: corpus: checking /healthz shape"
health=$(curl -sSf "$base/healthz")
echo "$health" | grep -q '"docs":3' || fail "healthz docs wrong: $health"
echo "$health" | grep -q '"shards":3' || fail "healthz shards wrong: $health"

echo "smoke: corpus: querying /query for document fields"
body="{\"query\":\"$cname\",\"n\":5}"
response=$(curl -sSf -X POST -H 'Content-Type: application/json' -d "$body" "$base/query")
echo "$response" | grep -q '"rank":1' || fail "no ranked corpus results in: $response"
echo "$response" | grep -q '"doc_name":' || fail "no document names in: $response"

echo "smoke: corpus: render:true then render:false for one query"
# Cached rows hold their rendered subtrees, so render must key the cache.
response=$(curl -sSf -X POST -H 'Content-Type: application/json' \
    -d "{\"query\":\"$cname\",\"n\":5,\"render\":true}" "$base/query")
echo "$response" | grep -q '"subtree":' || fail "render:true returned no subtrees: $response"
response=$(curl -sSf -X POST -H 'Content-Type: application/json' \
    -d "{\"query\":\"$cname\",\"n\":5,\"render\":false}" "$base/query")
echo "$response" | grep -q '"rank":1' || fail "no ranked results for render:false: $response"
if echo "$response" | grep -q '"subtree":'; then
    fail "render:false returned subtrees: $response"
fi

# --- query log: every /query arrival lands in the -record log ---------------

echo "smoke: record: posting four more queries"
for q in "{\"query\":\"$cname\",\"n\":3}" \
    "{\"query\":\"$cname\",\"n\":3}" \
    "{\"query\":\"$cname[$cname]\",\"n\":2,\"strategy\":\"auto\"}" \
    "{\"query\":\"$cname\",\"n\":5}"; do
    curl -sSf -o /dev/null -X POST -H 'Content-Type: application/json' -d "$q" "$base/query" ||
        fail "query $q failed"
done

echo "smoke: record: server logged every arrival"
# The corpus query above plus the 4 just posted: at least 5 log lines.
[ -f "$workdir/server_queries.jsonl" ] || fail "server query log not written"
lines=$(wc -l <"$workdir/server_queries.jsonl")
[ "$lines" -ge 5 ] || fail "server query log has $lines lines, want >= 5"
grep -q '"at_ms"' "$workdir/server_queries.jsonl" || fail "query log lacks at_ms offsets"
grep -q "\"$cname\"" "$workdir/server_queries.jsonl" || fail "query log lacks the smoke query"

kill -TERM "$server_pid"
for _ in $(seq 1 100); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
done
wait "$server_pid" || fail "corpus server exited non-zero"
server_pid=""

echo "smoke: OK"
