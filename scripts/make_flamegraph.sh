#!/usr/bin/env bash
# Produce a CPU flamegraph of a simulator run for the CI artifact (and
# for local perf work).
#
# Usage: scripts/make_flamegraph.sh [-o OUTDIR] [COMMAND [ARGS...]]
#
#   OUTDIR   defaults to bench-out
#   COMMAND  the full command line to profile, run as given; defaults
#            to ./build/bench_event_engine --fast. Profile a shipped
#            config to rank the frames of the real packet path, e.g.
#              scripts/make_flamegraph.sh -o bench-out \
#                ./build/powertcp_run --threads=1 configs/fig6_quick.toml
#
# Output files are named after the command's binary: NAME_flame.svg,
# or NAME_profile.txt from the text fallbacks.
#
# Strategy, best first, falling through gracefully:
#   1. perf record -g + flamegraph.pl (or inferno-flamegraph) -> SVG
#   2. perf record -g + perf report --stdio              -> text profile
#   3. gprofng collect/gprofng display text              -> text profile
#
# CI runners frequently lack perf_event_paranoid access or the perf
# package for the running kernel, so *this script never fails the
# build*: if no profiler works it prints why and exits 0. The CI step
# uploads whatever landed in OUTDIR.
set -u

OUT="bench-out"
if [ "${1:-}" = "-o" ]; then
  if [ $# -lt 2 ]; then
    echo "make_flamegraph: -o needs a directory; skipping" >&2
    exit 0
  fi
  OUT="$2"
  shift 2
fi
if [ $# -eq 0 ]; then
  set -- ./build/bench_event_engine --fast
fi
BIN="$1"
NAME="$(basename "$BIN")"
mkdir -p "$OUT"

if [ ! -x "$BIN" ]; then
  echo "make_flamegraph: $BIN not built; skipping" >&2
  exit 0
fi

have() { command -v "$1" > /dev/null 2>&1; }

flamegraph_tool=""
for cand in flamegraph.pl inferno-flamegraph; do
  if have "$cand"; then
    flamegraph_tool="$cand"
    break
  fi
done

if have perf; then
  if perf record -g --output="$OUT/perf.data" -- \
    "$@" > /dev/null 2> "$OUT/perf_record.log"; then
    if [ -n "$flamegraph_tool" ] && have stackcollapse-perf.pl; then
      perf script --input="$OUT/perf.data" \
        | stackcollapse-perf.pl \
        | "$flamegraph_tool" --title "$*" \
          > "$OUT/${NAME}_flame.svg" \
        && echo "make_flamegraph: wrote $OUT/${NAME}_flame.svg" \
        && rm -f "$OUT/perf.data" \
        && exit 0
    fi
    if perf report --stdio --input="$OUT/perf.data" \
      > "$OUT/${NAME}_profile.txt" 2>> "$OUT/perf_record.log"; then
      echo "make_flamegraph: no flamegraph.pl; wrote folded profile" \
        "$OUT/${NAME}_profile.txt"
      rm -f "$OUT/perf.data"
      exit 0
    fi
  fi
  echo "make_flamegraph: perf present but recording failed" \
    "(perf_event_paranoid? see $OUT/perf_record.log); trying gprofng" >&2
fi

if have gprofng; then
  rm -rf "$OUT/gprofng.er"
  if gprofng collect app -o "$OUT/gprofng.er" \
    "$@" > /dev/null 2> "$OUT/gprofng.log"; then
    gprofng display text -functions "$OUT/gprofng.er" \
      > "$OUT/${NAME}_profile.txt" 2>> "$OUT/gprofng.log" \
      && echo "make_flamegraph: wrote $OUT/${NAME}_profile.txt" \
        "(gprofng fallback)" \
      && rm -rf "$OUT/gprofng.er" \
      && exit 0
  fi
  echo "make_flamegraph: gprofng collection failed (see $OUT/gprofng.log)" >&2
fi

echo "make_flamegraph: no usable profiler (need perf or gprofng);" \
  "skipping without failing the build" >&2
exit 0
