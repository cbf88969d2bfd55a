#!/usr/bin/env bash
# Records one benchmark trajectory point, per the bench/README.md
# methodology: builds perf_microbench in Release and snapshots its JSON
# output into bench/BENCH_YYYYMMDD.json.  The nightly CI job runs this and
# uploads the file as an artifact; run it locally and commit the file to pin
# a before/after reference next to a perf-relevant change.
#
#   BUILD_DIR=build STAMP=20260729 scripts/record_bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
STAMP="${STAMP:-$(date +%Y%m%d)}"
OUT="bench/BENCH_${STAMP}.json"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target perf_microbench
"./${BUILD_DIR}/perf_microbench" --benchmark_format=json > "$OUT"

# The trajectory must cover the workload-roster benchmarks: a snapshot that
# silently dropped them (filtered run, renamed bench) would let the nightly
# compare gate pass on an empty intersection.  The profiling hot path and the
# what-if query hot path (budget distribution and annealing moves) must be
# present too, with the annealing solve of the shared model those queries
# spend most of their time in, and the large-member annealing bench that
# alone runs the multi-word member sets (no shipped model needs them).  So
# must the instrumented array's two hot paths: an access with no recorder
# attached and a recorded access, the default-options profile of the two
# workloads whose profiling dominates a cold exploration, and the
# branch-and-bound solves behind the btpc what-if queries.
for bench in BM_MotionEstimate \
             BM_UninstrumentedArrayAccess BM_RecorderRecordThroughput \
             BM_RecorderReuseWindow BM_RecorderCoAccess BM_ProfiledEncode \
             BM_WorkloadProfile/btpc BM_WorkloadProfile/hyperspec \
             BM_ExploreMotion BM_ExploreMultiWorkload \
             BM_HyperspecEncode BM_ProfiledFeedback256 \
             BM_PersistRoundTrip BM_ProfileCacheHit \
             BM_BitWriterThroughput BM_BitReaderThroughput \
             BM_EncodeLossless \
             BM_TelemetryOverhead BM_ScbdDistribution BM_ScbdMotionCurve \
             BM_AnnealingIncremental BM_AnnealingLargeMembers \
             BM_AnnealingSharedModel \
             BM_AssignmentBranchAndBound/ BM_AssignmentBranchAndBound/btpc_tuned; do
  if ! grep -q "\"$bench" "$OUT"; then
    echo "error: $OUT is missing $bench — incomplete trajectory point" >&2
    exit 1
  fi
done
echo "wrote $OUT"
