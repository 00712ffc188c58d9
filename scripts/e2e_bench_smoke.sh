#!/bin/sh
# e2e_bench_smoke.sh — guard against a timer returning to the real-UDP
# commit path, and against commits going down the chain unpacked.
#
# Runs the repo benchmark's 3-replica chain twice for 3 s, volatile
# (chain3-pkt) and with a WAL per replica (chain3-wal-pkt), requires
# both to pass their output checks with no failed write, and fails
# unless WAL goodput is at least 0.6x the volatile goodput of the same
# job. The ratio is host-independent: the WAL itself is a small share of
# a write, so a self-clocked group commit keeps it near 0.9 (0.88 with
# acknowledgments coalesced per requester, 0.90–0.95 before: the WAL's
# share grows as the rest of a write shrinks), while any linger on the
# commit path (Go's netpoller rounds an idle-P timer to ~1 ms) drags it
# to ~0.28.
#
# The volatile run also gates allocations: its allocs_per_write must stay
# below 0.01. Allocation counts repeat exactly from run to run, so this
# holds on any host: 0.0011 with the head decoding into reused messages
# and deciding into per-shard scratch, 6.0 when every write allocated its
# decoded message, acknowledgment and update.
#
# A third, traced chain3-pkt run gives a second host-independent ratio:
# the CPU one more replica costs a write (udp.hop_cpu_us) must be at most
# 0.15 of the CPU of the whole write (cpu_us_per_write) — 0.10 with a
# commit group's entries packed into MTU-sized chain datagrams and its
# acknowledgments coalesced (0.06 with packing alone: the hop costs the
# same, the whole write less), 0.24 with one datagram per commit.
#
# Usage:
#   scripts/e2e_bench_smoke.sh
set -eu
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run prints the goodput_wps of one workload after checking its verdict,
# and leaves the benchmark's report in $out/report. Arguments after the
# workload go to the benchmark.
run() {
    go run ./bench/e2e -seconds 3 -out "$out" -workload "$@" >"$out/report"
    last=$(tail -n 1 "$out/report")
    case "$last" in
    '{"correct":true,'*'"failed":0,'*) ;;
    *)
        echo "FAIL: $1 did not finish correct with failed=0: $last" >&2
        exit 1
        ;;
    esac
    echo "$last" | sed -n 's/.*"goodput_wps":{"value":\([0-9.e+]*\).*/\1/p'
}

echo "== chain3-pkt (volatile) =="
vol=$(run chain3-pkt)
echo "goodput_wps $vol"
allocs=$(tail -n 1 "$out/report" | sed -n 's/.*"allocs_per_write":{"value":\([0-9.e+-]*\).*/\1/p')
awk -v a="$allocs" 'BEGIN {
    printf "allocs_per_write %s (ceiling 0.01)\n", a
    exit !(a != "" && a < 0.01)
}' || {
    echo "FAIL: the real-UDP path allocates per write again — is a request, acknowledgment or update no longer decoded into reused memory?" >&2
    exit 1
}
echo "== chain3-wal-pkt (WAL per replica) =="
wal=$(run chain3-wal-pkt)
echo "goodput_wps $wal"

awk -v w="$wal" -v v="$vol" 'BEGIN {
    r = w / v
    printf "WAL/volatile goodput ratio %.2f (floor 0.60)\n", r
    exit !(r >= 0.6)
}' || {
    echo "FAIL: durable chain goodput fell below 0.6x volatile — is something waiting on the commit path?" >&2
    exit 1
}

echo "== chain3-pkt (traced: per-hop CPU) =="
run chain3-pkt -trace 1 >/dev/null
# The report's first cpu_us_per_write row is the end-to-end metric, in us.
awk '$1 == "udp.hop_cpu_us" { h = $2 } $1 == "cpu_us_per_write" && !c { c = $2 } END {
    printf "hop CPU / write CPU %.2f (%s / %s us, ceiling 0.15)\n", h / c, h, c
    exit !(c > 0 && h / c <= 0.15)
}' "$out/report" || {
    echo "FAIL: one more replica costs over 0.15 of a write's CPU — is every commit going down the chain as its own datagram again?" >&2
    exit 1
}
echo "OK"
