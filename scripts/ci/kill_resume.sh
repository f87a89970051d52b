#!/usr/bin/env bash
# Kill/resume leg shared by the campaign smoke jobs (sweep, leaksim,
# failsim).
#
#   scripts/ci/kill_resume.sh <tool> <store> <reference> <args...>
#
# Runs `<tool> <args...> --out <store>` throttled on one thread, SIGKILLs
# it once a chunk is journaled to <store>.journal, checks that no store was
# published, resumes on two threads, and requires that the resume reported
# recovered chunks and wrote a store byte-identical to <reference>.
# <args...> must include --chunk N: a resume must match the journal's chunk
# size.
set -euo pipefail

tool=$1
store=$2
reference=$3
shift 3
journal="$store.journal"
log="$store.resume.log"

# Throttled run so the SIGKILL reliably lands mid-run.
"$tool" "$@" --out "$store" --threads 1 --throttle-chunk-ms 50 &
pid=$!
# Wait until at least one chunk has been journaled, then kill -9.
for _ in $(seq 1 100); do [ -s "$journal" ] && break; sleep 0.1; done
test -s "$journal"
sleep 0.3
kill -9 "$pid"
wait "$pid" || true
# The interrupted run must not have published a store.
test ! -e "$store"
# Resume from the journal (different thread count on purpose) and require
# a byte-identical store.
"$tool" "$@" --out "$store" --resume --threads 2 2>&1 | tee "$log"
grep -Eq "\([1-9][0-9]* resumed\)" "$log"
cmp "$reference" "$store"
