#!/usr/bin/env bash
# End-to-end smoke test of levyd cluster mode as three real OS processes:
#
#   1. bring up a 3-node cluster on local ports (retrying the port pick
#      if something else grabbed one);
#   2. check every node's health and the /v1/peers membership view;
#   3. run the same query through every node: exactly ONE simulation
#      must happen cluster-wide, the bodies must be byte-identical, and
#      at least one answer must come from a cross-node cache peek —
#      asserted from a live /metrics scrape. Which nodes hold the key
#      depends on the port block, so the order comes from the ring
#      (`levy ring`): node 0 first (its answer names the key), then the
#      key's other holder(s), and the one non-holder last, once the
#      holders' caches are warm;
#   4. rolling membership: warm a spread of keys, then admit a 4th node
#      (token-gated `levyc peers add` broadcast) while query load runs —
#      zero client-visible errors, byte-identical bodies throughout, the
#      ring epoch advances on every old node, and the rehomed keyspace
#      handoff shows up as cluster_handoff_keys_total >= 1, one
#      federated /v1/cluster/metrics scrape agrees with the per-node
#      sum, and the admission appears as a peer_admitted event in every
#      old node's /v1/events journal;
#   5. SIGTERM one node and require the survivors to keep answering —
#      including a levyc --endpoints failover through the dead node and
#      a cold query that degrades to local simulation;
#   6. SIGTERM the survivors and require clean (0) exits all round.
#
# Usage: scripts/cluster_smoke.sh [path-to-target-dir]
#   Binaries are taken from $1/release (default: target/release); build
#   them first with `cargo build --release -p levy-served -p parallel-levy-walks`.
set -euo pipefail
cd "$(dirname "$0")/.."

TARGET="${1:-target}/release"
LEVYD="$TARGET/levyd"
LEVYC="$TARGET/levyc"
LEVY="$TARGET/levy"
[ -x "$LEVYD" ] && [ -x "$LEVYC" ] && [ -x "$LEVY" ] || {
  echo "error: $LEVYD / $LEVYC / $LEVY not built" \
    "(run: cargo build --release -p levy-served -p parallel-levy-walks)" >&2
  exit 2
}

WORKDIR="$(mktemp -d "${TMPDIR:-/tmp}/levy-cluster-smoke.XXXXXX")"
PIDS=()
cleanup() {
  for PID in "${PIDS[@]:-}"; do
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  done
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

# 1. Bring-up. Ports must be known before any node starts (each node's
#    --peers names the other two), so pick a random block and retry the
#    whole bring-up if any bind loses a race.
started=""
TOKEN="smoke-secret"
for ATTEMPT in 1 2 3 4 5; do
  BASE=$((20000 + RANDOM % 40000))
  ADDRS=("127.0.0.1:$BASE" "127.0.0.1:$((BASE + 1))" "127.0.0.1:$((BASE + 2))")
  ADDR3="127.0.0.1:$((BASE + 3))" # reserved for the rolling-admission phase
  PIDS=()
  for I in 0 1 2; do
    PEERS=""
    for J in 0 1 2; do
      [ "$J" = "$I" ] && continue
      PEERS="${PEERS:+$PEERS,}${ADDRS[$J]}"
    done
    "$LEVYD" --addr "${ADDRS[$I]}" --workers 2 --cache-dir "$WORKDIR/cache$I" \
      --cluster --peers "$PEERS" --probe-interval-ms 200 --peek-timeout-ms 1000 \
      --replication 2 --cluster-token "$TOKEN" \
      >"$WORKDIR/node$I.out" 2>"$WORKDIR/node$I.log" &
    PIDS+=($!)
  done
  ALIVE=1
  for I in 0 1 2; do
    UP=""
    for _ in $(seq 1 100); do
      grep -q "^levyd listening on " "$WORKDIR/node$I.out" 2>/dev/null && { UP=1; break; }
      kill -0 "${PIDS[$I]}" 2>/dev/null || break
      sleep 0.1
    done
    [ -n "$UP" ] || { ALIVE=""; break; }
  done
  if [ -n "$ALIVE" ]; then
    started=1
    break
  fi
  echo "bring-up attempt $ATTEMPT failed (port race?), retrying" >&2
  for PID in "${PIDS[@]}"; do kill "$PID" 2>/dev/null || true; done
  wait 2>/dev/null || true
  PIDS=()
done
[ -n "$started" ] || { echo "could not bring up a 3-node cluster" >&2; exit 1; }
echo "cluster up: ${ADDRS[*]} (pids ${PIDS[*]})"

# 2. Health + membership: every node answers, and each sees 3 members
#    and its 2 peers.
for I in 0 1 2; do
  "$LEVYC" --addr "${ADDRS[$I]}" health >/dev/null
  "$LEVYC" --addr "${ADDRS[$I]}" peers --json >"$WORKDIR/peers$I.json" 2>/dev/null
  grep -q 'levy-served/peers-v1' "$WORKDIR/peers$I.json" || {
    echo "node $I /v1/peers is not the peers schema:" >&2; cat "$WORKDIR/peers$I.json" >&2; exit 1
  }
  # The default rendering is the operator table (one row per peer).
  "$LEVYC" --addr "${ADDRS[$I]}" peers 2>/dev/null | grep -q 'LAST_PROBE' || {
    echo "node $I: levyc peers did not render the health table" >&2; exit 1
  }
done
echo "health + peers: all 3 nodes answering"

# Sums a counter family across every node's /metrics.
scrape_sum() {
  local FAMILY="$1" TOTAL=0 VALUE
  for A in "${ADDRS[@]}"; do
    VALUE="$("$LEVYC" --addr "$A" metrics 2>/dev/null | awk -v f="$FAMILY" '$1 == f { print $2 }')"
    TOTAL=$((TOTAL + ${VALUE:-0}))
  done
  echo "$TOTAL"
}

QUERY='{"kind":"parallel","strategy":"optimal","k":8,"ell":16,"budget":4000,"trials":200,"seed":42}'

# 3. The same query through every node: one simulation, identical bytes,
#    and a cross-node cache hit visible in the metrics. Node 0 answers
#    first (simulating, or forwarding to the key's home); the home's
#    write-behind then warms the other holder. The holders answer from
#    their own caches, and the non-holder, asked last, must peek one.
"$LEVYC" --endpoints "${ADDRS[0]}" query "$QUERY" >"$WORKDIR/answer0.json" 2>"$WORKDIR/answer0.hdr"
KEY="$(sed -n 's/^key: //p' "$WORKDIR/answer0.hdr")"
PREFERENCE="$("$LEVY" ring --members "$(IFS=,; echo "${ADDRS[*]}")" --key "$KEY" |
  sed -n 's/^preference = //p')"
read -r -a RING_ORDER <<<"${PREFERENCE// -> / }"
[ "${#RING_ORDER[@]}" -eq 3 ] || {
  echo "levy ring gave no 3-member preference list for key '$KEY': $PREFERENCE" >&2; exit 1
}
ENTRIES=()
for A in "${RING_ORDER[@]:0:2}"; do # --replication 2: the first two hold the key
  [ "$A" = "${ADDRS[0]}" ] || ENTRIES+=("$A")
done
ENTRIES+=("${RING_ORDER[2]}")
for _ in $(seq 1 50); do
  [ "$(scrape_sum levy_served_cluster_replica_writes_total)" -ge 1 ] && break
  sleep 0.1
done
N=1
for A in "${ENTRIES[@]}"; do
  "$LEVYC" --endpoints "$A" query "$QUERY" >"$WORKDIR/answer$N.json" 2>"$WORKDIR/answer$N.hdr"
  cmp -s "$WORKDIR/answer0.json" "$WORKDIR/answer$N.json" || {
    echo "bodies differ between entry nodes ${ADDRS[0]} and $A" >&2
    diff "$WORKDIR/answer0.json" "$WORKDIR/answer$N.json" >&2 || true
    exit 1
  }
  N=$((N + 1))
done
SIMS="$(scrape_sum levy_served_simulations_started_total)"
[ "$SIMS" -eq 1 ] || {
  echo "expected exactly 1 simulation cluster-wide, /metrics says $SIMS" >&2; exit 1
}
PEEK_HITS="$(scrape_sum levy_served_cluster_peek_hits_total)"
[ "$PEEK_HITS" -ge 1 ] || {
  echo "expected >=1 cross-node cache peek hit, /metrics says $PEEK_HITS" >&2
  for I in $(seq 0 $((N - 1))); do cat "$WORKDIR/answer$I.hdr" >&2; done
  exit 1
}
echo "query via 3 entries: 1 simulation, byte-identical bodies, $PEEK_HITS cross-node cache hit(s)"

# 4. Rolling membership under load. Warm a spread of keys (so some of
#    the keyspace is guaranteed to rehome onto the new member), start
#    query load over those keys, admit a 4th node mid-load with a
#    token-gated `levyc peers add` broadcast, and require: every load
#    query answered with the exact warm bytes (zero client-visible
#    errors), the ring epoch advanced on every old node, and the
#    rehomed-cache handoff visible as cluster_handoff_keys_total >= 1.
WARM_SEEDS=$(seq 100 115)
for SEED in $WARM_SEEDS; do
  "$LEVYC" --endpoints "${ADDRS[0]}" query \
    "{\"kind\":\"parallel\",\"strategy\":\"optimal\",\"k\":8,\"ell\":16,\"budget\":4000,\"trials\":200,\"seed\":$SEED}" \
    >"$WORKDIR/warm$SEED.json" 2>/dev/null
done
(
  ROUND=0
  for PASS in 1 2 3; do
    for SEED in $WARM_SEEDS; do
      ENTRY="${ADDRS[$((ROUND % 3))]}"
      ROUND=$((ROUND + 1))
      "$LEVYC" --endpoints "$ENTRY" query \
        "{\"kind\":\"parallel\",\"strategy\":\"optimal\",\"k\":8,\"ell\":16,\"budget\":4000,\"trials\":200,\"seed\":$SEED}" \
        >"$WORKDIR/load-$PASS-$SEED.json" 2>/dev/null \
        || { echo "$PASS/$SEED" >>"$WORKDIR/load-failures"; }
    done
  done
) &
LOAD_PID=$!
"$LEVYD" --addr "$ADDR3" --workers 2 --cache-dir "$WORKDIR/cache3" \
  --cluster --peers "${ADDRS[0]},${ADDRS[1]},${ADDRS[2]}" \
  --probe-interval-ms 200 --peek-timeout-ms 1000 \
  --replication 2 --cluster-token "$TOKEN" \
  >"$WORKDIR/node3.out" 2>"$WORKDIR/node3.log" &
PIDS+=($!)
for _ in $(seq 1 100); do
  grep -q "^levyd listening on " "$WORKDIR/node3.out" 2>/dev/null && break
  sleep 0.1
done
grep -q "^levyd listening on " "$WORKDIR/node3.out" || {
  echo "4th node failed to start:" >&2; cat "$WORKDIR/node3.log" >&2; exit 1
}
for I in 0 1 2; do
  LEVY_CLUSTER_TOKEN="$TOKEN" "$LEVYC" --addr "${ADDRS[$I]}" peers add "$ADDR3" \
    >"$WORKDIR/admit$I.json" 2>/dev/null || {
    echo "peers add broadcast to node $I failed:" >&2
    cat "$WORKDIR/admit$I.json" >&2; exit 1
  }
  grep -Eq '"epoch": ?2' "$WORKDIR/admit$I.json" || {
    echo "node $I did not advance its ring epoch on admission:" >&2
    cat "$WORKDIR/admit$I.json" >&2; exit 1
  }
done
wait "$LOAD_PID"
[ ! -e "$WORKDIR/load-failures" ] || {
  echo "client-visible errors during rolling admission:" >&2
  cat "$WORKDIR/load-failures" >&2; exit 1
}
for PASS in 1 2 3; do
  for SEED in $WARM_SEEDS; do
    cmp -s "$WORKDIR/warm$SEED.json" "$WORKDIR/load-$PASS-$SEED.json" || {
      echo "seed $SEED pass $PASS: body changed during rolling admission" >&2; exit 1
    }
  done
done
ADDRS+=("$ADDR3") # scrape the new member from here on
HANDOFF=0
for _ in $(seq 1 150); do
  HANDOFF="$(scrape_sum levy_served_cluster_handoff_keys_total)"
  [ "$HANDOFF" -ge 1 ] && break
  sleep 0.2
done
[ "$HANDOFF" -ge 1 ] || {
  echo "expected >=1 handed-off key after admission, /metrics says $HANDOFF" >&2
  exit 1
}
echo "rolling admission: epoch 2 on all old nodes, 0 client errors, $HANDOFF key(s) handed off"

# 4b. Cluster-wide observability after the admission: one federated
#     scrape from any single node must agree with the per-node sum
#     (every node answered, so no scrape_up 0), and the admission must
#     appear as a peer_admitted event in every old node's journal.
"$LEVYC" --addr "${ADDRS[0]}" metrics --cluster >"$WORKDIR/federated.prom" 2>/dev/null
FED_SIMS="$(awk '$1 == "levy_served_simulations_started_total" { print $2 }' "$WORKDIR/federated.prom")"
SUM_SIMS="$(scrape_sum levy_served_simulations_started_total)"
[ -n "$FED_SIMS" ] && [ "${FED_SIMS%.*}" -eq "$SUM_SIMS" ] || {
  echo "federated scrape says $FED_SIMS simulations, per-node sum says $SUM_SIMS" >&2
  exit 1
}
if grep -q 'levy_cluster_scrape_up{[^}]*} 0' "$WORKDIR/federated.prom"; then
  echo "federated scrape reports an unreachable member with all 4 nodes up:" >&2
  grep 'levy_cluster_scrape_up' "$WORKDIR/federated.prom" >&2
  exit 1
fi
for I in 0 1 2; do
  "$LEVYC" --addr "${ADDRS[$I]}" events >"$WORKDIR/events$I.txt" 2>/dev/null
  grep -q "peer_admitted.*$ADDR3" "$WORKDIR/events$I.txt" || {
    echo "node $I journal has no peer_admitted event for $ADDR3:" >&2
    cat "$WORKDIR/events$I.txt" >&2; exit 1
  }
done
echo "observability: federated scrape agrees ($FED_SIMS sims), admission journaled on all old nodes"

# 5. Kill one node; the survivors must keep serving. levyc --endpoints
#    listing the dead node first must fail over, and a cold query homed
#    anywhere must still answer (local fallback at worst).
kill -TERM "${PIDS[1]}"
STATUS=0
wait "${PIDS[1]}" || STATUS=$?
[ "$STATUS" -eq 0 ] || {
  echo "node 1 exited with status $STATUS on SIGTERM:" >&2; cat "$WORKDIR/node1.log" >&2; exit 1
}
PIDS[1]=""
"$LEVYC" --endpoints "${ADDRS[1]},${ADDRS[0]},${ADDRS[2]}" health >/dev/null 2>"$WORKDIR/failover.hdr" || {
  echo "levyc did not fail over past the dead endpoint:" >&2; cat "$WORKDIR/failover.hdr" >&2; exit 1
}
COLD='{"kind":"parallel","strategy":"optimal","k":8,"ell":16,"budget":4000,"trials":200,"seed":1729}'
"$LEVYC" --endpoints "${ADDRS[0]},${ADDRS[2]}" query "$COLD" >"$WORKDIR/degraded.json" 2>/dev/null
grep -q '"schema"' "$WORKDIR/degraded.json" || {
  echo "degraded-mode query did not return a result body" >&2; exit 1
}
echo "degraded mode: survivors answer after SIGTERM of one node"

# 6. Clean drain of the survivors (including the admitted 4th node).
for I in 0 2 3; do
  kill -TERM "${PIDS[$I]}"
  STATUS=0
  wait "${PIDS[$I]}" || STATUS=$?
  PIDS[$I]=""
  [ "$STATUS" -eq 0 ] || {
    echo "node $I exited with status $STATUS on SIGTERM:" >&2; cat "$WORKDIR/node$I.log" >&2; exit 1
  }
done
PIDS=()
echo "shutdown: clean exits on SIGTERM"
echo "cluster smoke: PASS"
