#!/usr/bin/env bash
# Multi-core floors of the shipped CLI, on one fixed rnd2k problem: a
# seeded 256-pattern file and a directory of 32 dies drained with
# `diagnose --batch-dir`.  Two ratios of best-of-3 drain wall times,
# with the arms interleaved run by run:
#
#   kernel domains   --domains 1 / --domains N  (--workers 1)    >= 0.60
#   request workers  --workers 1 / --workers N  (--domains 1)    >= 1.30
#
# N is `nproc`.  A drain sweeps the whole signature arena before its
# first die, fanned out over the kernel domains.  The first floor
# catches a fork-join collapse (extra kernel domains making that sweep
# and the dies' kernels much slower than one domain); the second
# catches the volume drain serialising (a lock or a shared sink on the
# warm session).  Skipped on a single-core host, where neither ratio
# has a signal.
#
# Run from the repository root:  bash bench/multicore_floors.sh
set -euo pipefail

n=$(nproc)
if [ "$n" -lt 2 ]; then
  echo "multi-core floors: skipped (nproc = $n)"
  exit 0
fi

dune build ./bin/diagnose.exe ./bin/inject.exe ./bin/simulate.exe
bin=_build/default/bin
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$bin/simulate.exe" --circuit rnd2k --random 256 --seed 1 | grep -v '^#' \
  | cut -d' ' -f1 > "$work/pats.txt"
mkdir "$work/dies"
for i in $(seq 1 32); do
  "$bin/inject.exe" --circuit rnd2k --patterns "$work/pats.txt" -k $((1 + i % 4)) \
    --seed "$i" --datalog "$work/dies/die$i.datalog" 2> /dev/null
done

# Wall milliseconds of one drain with the given extra options.
drain() {
  local t0 t1
  t0=$(date +%s%N)
  "$bin/diagnose.exe" --circuit rnd2k --patterns "$work/pats.txt" \
    --batch-dir "$work/dies" --out "$work/out" "$@" > /dev/null
  t1=$(date +%s%N)
  echo $(((t1 - t0) / 1000000))
}

best() { if [ -z "$1" ] || [ "$2" -lt "$1" ]; then echo "$2"; else echo "$1"; fi; }

d1= dn= w1= wn=
for _ in 1 2 3; do
  d1=$(best "$d1" "$(drain --workers 1 --domains 1)")
  dn=$(best "$dn" "$(drain --workers 1 --domains "$n")")
  w1=$(best "$w1" "$(drain --domains 1 --workers 1)")
  wn=$(best "$wn" "$(drain --domains 1 --workers "$n")")
done

status=0
check() { # name, t1 ms, tN ms, floor
  local ratio
  ratio=$(awk -v a="$2" -v b="$3" 'BEGIN { printf "%.3f", a / b }')
  echo "$1: $2 ms at 1, $3 ms at $n => ${ratio}x (floor $4)"
  if awk -v r="$ratio" -v f="$4" 'BEGIN { exit !(r < f) }'; then
    echo "FAIL: $1 ratio ${ratio}x below floor $4"
    status=1
  fi
}
check "kernel domains" "$d1" "$dn" 0.60
check "request workers" "$w1" "$wn" 1.30
exit $status
