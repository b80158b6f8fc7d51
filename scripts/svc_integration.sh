#!/usr/bin/env bash
# End-to-end check of the trimsvc experiment service, runnable locally
# and from CI: boot the service on a free port, submit a fig4 run,
# stream its SSE events, compare the result byte-for-byte against a
# direct trimsim run of the same spec, then resubmit and prove the
# content-addressed store answered without a second simulation, that
# trimsim -cache on the same directory prints the run whole from it, and
# that examples/svcclient follows the stream to the same result.
set -euo pipefail

workdir=$(mktemp -d)
store="$workdir/store"
cleanup() {
	[ -n "${svc_pid:-}" ] && kill "$svc_pid" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT

echo "--- build"
go build -o "$workdir/trimsvc" ./cmd/trimsvc
go build -o "$workdir/trimsim" ./cmd/trimsim

echo "--- boot trimsvc"
# -cache-force: a locally built tree may be dirty, and both binaries come
# from the same build, so they agree on the code version.
"$workdir/trimsvc" -addr 127.0.0.1:0 -cache "$store" -cache-force >"$workdir/svc.log" 2>&1 &
svc_pid=$!
base=""
for _ in $(seq 1 100); do
	base=$(sed -n 's#.*listening on \(http://[^ ]*\).*#\1#p' "$workdir/svc.log")
	[ -n "$base" ] && break
	kill -0 "$svc_pid" || { cat "$workdir/svc.log"; echo "trimsvc exited early"; exit 1; }
	sleep 0.1
done
[ -n "$base" ] || { cat "$workdir/svc.log"; echo "trimsvc never listened"; exit 1; }
echo "service at $base"

echo "--- registry lists fig4"
curl -fsS "$base/v1/runners" | jq -e '.runners[] | select(.id == "fig4")' >/dev/null

echo "--- submit fig4"
run1=$(curl -fsS -X POST "$base/v1/runs" -d '{"runner":"fig4"}')
id1=$(echo "$run1" | jq -r .id)
[ "$(echo "$run1" | jq -r .cached)" = "false" ] || { echo "first run claims cached"; exit 1; }

echo "--- wait for completion"
for _ in $(seq 1 300); do
	state=$(curl -fsS "$base/v1/runs/$id1" | jq -r .state)
	case "$state" in
	done) break ;;
	failed | canceled)
		curl -fsS "$base/v1/runs/$id1" | jq .
		exit 1
		;;
	esac
	sleep 0.2
done
[ "$state" = "done" ] || { echo "run stuck in $state"; exit 1; }

echo "--- stream events (replay after completion)"
curl -fsS -N --max-time 30 "$base/v1/runs/$id1/events" >"$workdir/events" || true
grep -q '"kind":"sample"' "$workdir/events" || { echo "no sample events"; exit 1; }
grep -q '"kind":"fct"' "$workdir/events" || { echo "no fct event"; exit 1; }
grep -q '"kind":"done"' "$workdir/events" || { echo "no terminal done event"; exit 1; }
echo "$(grep -c '^data: ' "$workdir/events") SSE events"

echo "--- result is byte-identical to a direct trimsim run"
curl -fsS "$base/v1/runs/$id1/result" >"$workdir/svc.out"
"$workdir/trimsim" -run fig4 >"$workdir/direct.out"
cmp "$workdir/svc.out" "$workdir/direct.out"

echo "--- resubmit: cache answers without a second simulation"
sims_before=$(curl -fsS "$base/v1/stats" | jq -r .simulations)
run2=$(curl -fsS -X POST "$base/v1/runs" -d '{"runner":"fig4"}')
id2=$(echo "$run2" | jq -r .id)
[ "$(echo "$run2" | jq -r .cached)" = "true" ] || { echo "resubmission missed the cache"; exit 1; }
sims_after=$(curl -fsS "$base/v1/stats" | jq -r .simulations)
[ "$sims_before" = "$sims_after" ] || { echo "cache hit ran a simulation ($sims_before -> $sims_after)"; exit 1; }
curl -fsS "$base/v1/runs/$id2/result" >"$workdir/cached.out"
cmp "$workdir/cached.out" "$workdir/direct.out"

echo "--- trimsim -cache answers the service's run whole, with no cell"
ls "$store"/*.cell >/dev/null || { echo "the service stored no cell"; exit 1; }
rm -f "$store"/*.cell
"$workdir/trimsim" -cache "$store" -cache-force -run fig4 >"$workdir/store.out"
cmp "$workdir/store.out" "$workdir/direct.out"
if ls "$store"/*.cell >/dev/null 2>&1; then
	echo "trimsim recomputed cells instead of reading the stored run"
	exit 1
fi

echo "--- examples/svcclient streams the run and prints its result"
go run ./examples/svcclient -svc "$base" -runner fig4 >"$workdir/client.out"
grep -q '^  run complete$' "$workdir/client.out" || { cat "$workdir/client.out"; echo "svcclient saw no terminal done event"; exit 1; }
tail -c "$(wc -c <"$workdir/direct.out")" "$workdir/client.out" | cmp - "$workdir/direct.out"

echo "--- graceful shutdown on SIGTERM"
kill -TERM "$svc_pid"
for _ in $(seq 1 100); do
	kill -0 "$svc_pid" 2>/dev/null || break
	sleep 0.1
done
if kill -0 "$svc_pid" 2>/dev/null; then
	echo "trimsvc did not exit on SIGTERM"
	exit 1
fi
svc_pid=""

echo "PASS"
