#!/usr/bin/env bash
# ci.sh — the single CI entry point.
#
# With no argument, runs the full pipeline: checks that every src/ header
# has a user (the headers stage below), builds every preset (werror is
# the warnings stage below), runs the channel-farm tests and the noise-crew
# and GyroSystem tests under TSan, runs the tier-1 test suite on the default and
# ubsan builds (the ubsan build also halts on a float-to-integer cast of NaN
# or ±Inf), the observability smoke (platform_top's JSON snapshot and
# Chrome trace), the perf ledger's selftest and smoke run (every workload's
# seed-2026 output hash must match its pin), the static verification driver
# (platform_lint) over the shipped platform plus both negative fixtures, and
# finishes with every other named stage below except coverage and ledger.
# clang-tidy (the lint preset) runs only when the tool is installed, so the
# script works in minimal containers too.
#
# Individual stages can be run by name:
#   ci.sh warnings     — every target built in build-werror (the werror
#                        preset: -DCMAKE_CXX_FLAGS=-Werror over the default
#                        -Wall -Wextra), so a new warning fails the pipeline
#                        instead of scrolling past in the log; configured
#                        with CMAKE_DISABLE_FIND_PACKAGE_benchmark, so no
#                        target may come to need Google Benchmark again
#   ci.sh headers      — every src/ header is included by some file other
#                        than its own .cpp (no build); a header nothing
#                        includes is code nothing runs
#   ci.sh coverage     — ASCP_COVERAGE build, tier-1 + fuzz smoke, then the
#                        aggregated line-coverage summary (coverage_report.py)
#   ci.sh fuzz-smoke   — deterministic conformance smoke: 200 randomized
#                        scenarios from --seed 2026, zero violations required
#   ci.sh fuzz-corpus  — replay every checked-in .scenario under ASAN
#   ci.sh chaos-smoke  — deterministic seeded fleet-chaos run (stalls,
#                        exceptions, checkpoint corruption; zero lost
#                        channels required), the same run and the fleet,
#                        farm and blackbox tests under TSan (the one channel
#                        runtime: the farm's pool, its lockstep lane groups
#                        at 1 and 4 workers, observed groups with flight
#                        recorders among them, the fleet's lane groups
#                        through a crash and restore, its per-channel busy
#                        stamps and the fleet watchdog that reads them),
#                        plus, under ASAN, the observed-group and fleet-lane
#                        tests, a checkpoint round-trip replay, the
#                        framed-container byte-layout pins, the
#                        forged-length (8051 memory saved lengths past
#                        their size and past the payload among them),
#                        forged-count (8051 memory sizes among them),
#                        forged-SAR-phase, forged SRAM-trace-register and
#                        forged-version rejection tests, a restore over
#                        longer firmware leaving fill behind, the 8051
#                        memories' saved-length rule (each saves a u64
#                        length, one past its last non-fill value, and
#                        that many values, so an untouched memory and one
#                        written with its fill save the same bytes, a
#                        channel without firmware saves at most 8 KiB,
#                        firmware adds its code length, and a checkpoint
#                        round-trips byte for byte with and without
#                        firmware), the tests that the DAC, noise and
#                        MEMS coefficient caches are invisible (a component
#                        stepped straight matches a twin reloaded from its
#                        state before every step, bit for bit), the SAR
#                        converter's NaN-input test, its INL table pinned
#                        whichever call draws it first, the MEMS lane tests
#                        (every lane count bit-identical to one ring at a
#                        time) and the footprint binary (INL tables, the
#                        8051 PC histogram and the 8051 memories allocated
#                        at first use; an unused profiler's empty histogram
#                        read as all zeros; the obs record path allocating
#                        nothing once its rings have wrapped), the event
#                        log tests (ring wrap, the category values that
#                        flight records store), the test that a run adds
#                        no event to a settled channel's ring or flight
#                        recorder, and the span and Chrome-trace export
#                        tests (the export looks each timed task firing's
#                        track up by its span's name), and the noise crew
#                        and GyroSystem tests (every stream's read-ahead
#                        cursor walking the helpers' rows, the rows'
#                        prefetch, rewinds of runs that throw at a block's
#                        edges, a starved run handed back to inline draws),
#                        all but the checkpoint replay and layout tests
#                        with UBSan halting on error
#   ci.sh wcet         — static timing proof: the MCS-51 opcode table must
#                        agree with the ISS for all 256 opcodes (decoded
#                        length, flow and targets, write flags, machine
#                        cycles, CDATA accesses) and its listing must
#                        round-trip through the assembler, which encodes
#                        from the same table (OpcodeTable.*, CycleTable.*,
#                        IssFuzz.*, Assembler.*, AsmFuzz.*); platform_lint
#                        --timing must be error-free on the shipped
#                        platform, the unbounded-loop fixture must be
#                        flagged, and the differential WCET validation
#                        bench (static >= ISS-observed for every corpus
#                        function) must pass in smoke mode. Under ASAN the
#                        assembler tests and its seeded mutation fuzz must
#                        pass, and platform_lint --asm must reject the
#                        code-past-64K fixture with an asm finding (exit 1,
#                        no sanitizer report)
#   ci.sh replay       — stimulus record/replay proof: ascp_tool
#                        record→replay hash round-trip on two corpus
#                        scenarios (one under ASAN), an ascp_tool diff
#                        self-check on the recorded traces, and the
#                        queue/recorded channel-farm tests under TSan
#   ci.sh blackbox     — crash-forensics proof under ASAN: chaos smoke with
#                        --blackbox-dir, ascp_tool inspect/export/replay
#                        round-trip on a dumped image, a bit-flipped image
#                        must fail replay with the distinct blackbox CRC
#                        error, and ascp_tool inspect must pass a captured
#                        checkpoint, a recorded trace and the dumped image
#                        but reject a forged-length copy of each, and a copy
#                        of the trace whose sample-rate word (outside the
#                        CRC) is forged to +Inf (exit 1, no sanitizer report,
#                        float-cast-overflow included)
#   ci.sh ledger       — timing regression check: bench/ledger/run.sh check 3
#                        runs every ledger workload three times plus one
#                        traced run, and compares the medians with the
#                        committed bench/ledger/baseline.json under the
#                        end-to-end bounds in BENCHMARK.json; exits 1 on a
#                        regression and names the metric that moved most.
#                        Not part of the full pipeline: it takes about six
#                        minutes and its timings depend on the host.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
stage="${1:-all}"

build_preset() {
  echo "== configure + build: $1 =="
  cmake --preset "$1" >/dev/null
  cmake --build --preset "$1" -j "$jobs" "${@:2}"
}

stage_fuzz_smoke() {
  build_preset default --target scenario_fuzz
  echo "== conformance fuzz: deterministic smoke (seed 2026, 200 scenarios) =="
  ./build/tools/scenario_fuzz --smoke --seed 2026 --runs 200
}

stage_fuzz_corpus() {
  build_preset asan --target scenario_fuzz
  echo "== conformance fuzz: corpus replay under ASAN =="
  ./build-asan/tools/scenario_fuzz --corpus tests/conformance/corpus
}

stage_chaos_smoke() {
  build_preset default --target fleet_chaos
  echo "== fleet chaos: deterministic smoke (seed 2026) =="
  ./build/bench/fleet_chaos --smoke --seed 2026
  build_preset tsan --target test_engine --target fleet_chaos
  echo "== tsan: fleet, farm (lockstep lanes at 1 and 4 workers, observed groups, fleet lanes through a crash) and blackbox tests + fleet chaos smoke (seed 2026) =="
  ./build-tsan/tests/test_engine --gtest_filter='Fleet.*:ChannelFarm.*:Blackbox.*'
  ./build-tsan/bench/fleet_chaos --smoke --seed 2026
  build_preset asan --target test_engine --target test_checkpoint --target test_afe \
    --target test_sensor --target test_footprint --target test_mcu --target test_obs \
    --target test_core
  echo "== observed lane groups and fleet lanes through a crash under ASAN =="
  UBSAN_OPTIONS=halt_on_error=1 ./build-asan/tests/test_engine \
    --gtest_filter='ChannelFarm.ObservedLockstep*:ChannelFarm.IdealChannelsAdvanceInLockstep:Fleet.IdealChannelsAdvanceInLanes*'
  echo "== checkpoint round-trip replay and layout pins under ASAN =="
  ./build-asan/tests/test_checkpoint \
    --gtest_filter='Corpus/CorpusCheckpoint.ResumeAtKBitExactWithStraightRun/*:CheckpointFrame.*:FrameLayout.*'
  echo "== forged lengths, counts, 8051 memory sizes and saved lengths, SAR phase, SRAM-trace registers, versions, restore over longer firmware under ASAN =="
  UBSAN_OPTIONS=halt_on_error=1 ./build-asan/tests/test_checkpoint \
    --gtest_filter='FrameForgedLength.*:FrameForgedCount.*:FrameForgedPhase.*:FrameForgedState.*:FrameForgedVersion.*:CheckpointRestore.*'
  echo "== 8051 memories: saved lengths, image sizes, checkpoint round trips, under ASAN =="
  UBSAN_OPTIONS=halt_on_error=1 ./build-asan/tests/test_mcu --gtest_filter='FillMemory.*:CheckpointSize.*'
  echo "== coefficient caches invisible to a cold twin, a NaN at the SAR converter, its INL pin, MEMS lanes bit-identical, under ASAN =="
  UBSAN_OPTIONS=halt_on_error=1 ./build-asan/tests/test_afe \
    --gtest_filter='DacCache.*:NoiseCache.*:SarAdc.NanInputReadsBottomCodeAndIsCounted:SarAdc.InlTableIsTheSameWhicheverCallDrawsIt'
  UBSAN_OPTIONS=halt_on_error=1 ./build-asan/tests/test_sensor \
    --gtest_filter='GyroMemsCache.*:GyroMemsLanes.*'
  echo "== footprint: first-use INL tables, PC histogram and 8051 memories, empty-histogram reads, allocation-free obs record path, under ASAN =="
  UBSAN_OPTIONS=halt_on_error=1 ./build-asan/tests/test_footprint
  echo "== events, runs that add no event, spans and Chrome-trace export (task tracks drawn from the span ring), under ASAN =="
  UBSAN_OPTIONS=halt_on_error=1 ./build-asan/tests/test_obs \
    --gtest_filter='Events.*:ObsEventPipeline.RunBookkeepingLeavesNoEvent:Export.*:Spans.*'
  echo "== noise crew (per-stream cursors over the helpers' rows, rewinds at a block's edges, a starved run's hand-back) and GyroSystem tests under ASAN =="
  UBSAN_OPTIONS=halt_on_error=1 ./build-asan/tests/test_core --gtest_filter='NoiseCrew.*:GyroSystem.*'
}

stage_warnings() {
  echo "== configure + build: werror, with Google Benchmark hidden from find_package =="
  cmake --preset werror -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=TRUE >/dev/null
  cmake --build --preset werror -j "$jobs"
}

stage_headers() {
  echo "== every src/ header is included by a file other than its own .cpp =="
  local hdr users orphans=0
  while IFS= read -r hdr; do
    users=$(grep -rlF --include='*.cpp' --include='*.hpp' "#include \"${hdr#src/}\"" \
      src tools examples bench tests || true)
    users=$(printf '%s\n' "$users" | grep -vxF -e "${hdr%.hpp}.cpp" -e '' || true)
    if [[ -z "$users" ]]; then
      echo "ERROR: $hdr is included by no file but its own .cpp" >&2
      orphans=1
    fi
  done < <(find src -name '*.hpp' | sort)
  (( orphans == 0 ))
}

stage_wcet() {
  build_preset default --target platform_lint --target wcet_validation \
    --target test_mcu --target test_analysis
  echo "== opcode table vs ISS: decode, cycles, CDATA accesses, listing round-trip, assembler =="
  ./build/tests/test_mcu --gtest_filter='OpcodeTable.*:IssFuzz.*:Assembler.*:AsmFuzz.*'
  ./build/tests/test_analysis --gtest_filter='CycleTable.*'
  echo "== platform_lint --timing: shipped platform real-time budget =="
  ./build/tools/platform_lint --timing
  echo "== platform_lint --timing: unbounded loop must be flagged =="
  if ./build/tools/platform_lint --timing --asm tests/analysis/fixtures/unbounded_loop.asm; then
    echo "ERROR: unbounded_loop.asm was not flagged" >&2
    exit 1
  fi
  echo "== wcet_validation: static WCET >= ISS-observed (smoke) =="
  ./build/bench/wcet_validation --smoke
  build_preset asan --target test_mcu --target platform_lint
  echo "== assembler tests and seeded mutation fuzz under ASAN =="
  UBSAN_OPTIONS=halt_on_error=1 ./build-asan/tests/test_mcu --gtest_filter='Assembler.*:AsmFuzz.*'
  echo "== platform_lint --asm under ASAN: code past 64 K must be an asm finding =="
  local tmp rc=0
  tmp=$(mktemp -d)
  ./build-asan/tools/platform_lint --asm tests/analysis/fixtures/code_past_64k.asm \
    >"$tmp/out.txt" 2>"$tmp/err.txt" || rc=$?
  cat "$tmp/out.txt"
  if (( rc != 1 )) || ! grep -q '\[asm\]' "$tmp/out.txt" ||
      grep -qE 'Sanitizer|runtime error' "$tmp/err.txt"; then
    echo "ERROR: code_past_64k.asm was not rejected cleanly (exit $rc)" >&2
    cat "$tmp/err.txt" >&2
    exit 1
  fi
  rm -rf "$tmp"
}

stage_replay() {
  build_preset default --target ascp_tool
  build_preset asan --target ascp_tool
  local tmp
  tmp=$(mktemp -d)
  echo "== stimulus record→replay round-trip: vibration_shock (default build) =="
  ./build/tools/ascp_tool record tests/conformance/corpus/vibration_shock.scenario \
    "$tmp/vibration_shock.strace"
  ./build/tools/ascp_tool replay "$tmp/vibration_shock.strace" \
    tests/conformance/corpus/vibration_shock.scenario
  echo "== stimulus record→replay round-trip: trace_segment_replay (ASAN) =="
  ./build-asan/tools/ascp_tool record tests/conformance/corpus/trace_segment_replay.scenario \
    "$tmp/trace_segment_replay.strace"
  ./build-asan/tools/ascp_tool replay "$tmp/trace_segment_replay.strace" \
    tests/conformance/corpus/trace_segment_replay.scenario
  echo "== ascp_tool diff: self vs self must be identical, cross must not =="
  ./build/tools/ascp_tool diff "$tmp/vibration_shock.strace" "$tmp/vibration_shock.strace"
  if ./build/tools/ascp_tool diff "$tmp/vibration_shock.strace" \
      "$tmp/trace_segment_replay.strace"; then
    echo "ERROR: diff of two different traces reported identical" >&2
    exit 1
  fi
  rm -rf "$tmp"
  echo "== tsan: queue-fed + recorded-trace channel farms =="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$jobs" --target test_engine
  ./build-tsan/tests/test_engine --gtest_filter='FarmStimulus.*'
}

# Copy FILE to OUT with the little-endian u64 at byte OFFSET set to VALUE.
forge_u64() {
  python3 - "$@" <<'EOF'
import struct, sys
data = bytearray(open(sys.argv[1], 'rb').read())
struct.pack_into('<Q', data, int(sys.argv[2]), int(sys.argv[3]))
open(sys.argv[4], 'wb').write(data)
EOF
}

# ascp_tool inspect (ASAN build) must pass FILE, and must reject a copy whose
# u64 header word at OFFSET is forged to VALUE as a bad frame (exit 1)
# without a sanitizer report.
inspect_and_forge() {
  local file="$1" offset="$2" value="$3" rc=0
  ./build-asan/tools/ascp_tool inspect "$file"
  forge_u64 "$file" "$offset" "$value" "$file.forged"
  ./build-asan/tools/ascp_tool inspect "$file.forged" >/dev/null 2>"$file.err" || rc=$?
  if (( rc != 1 )) || grep -qE 'Sanitizer|runtime error' "$file.err"; then
    echo "ERROR: forged copy of $(basename "$file") (offset $offset) was not rejected cleanly" \
      "(exit $rc)" >&2
    cat "$file.err" >&2
    exit 1
  fi
}

stage_blackbox() {
  build_preset asan --target fleet_chaos --target ascp_tool
  local tmp
  tmp=$(mktemp -d)
  echo "== fleet chaos under ASAN, dumping .blackbox crash images =="
  (cd "$tmp" && "$OLDPWD"/build-asan/bench/fleet_chaos --smoke --seed 2026 \
    --blackbox-dir "$tmp/bb")
  local image
  image=$(ls "$tmp"/bb/*.blackbox | head -1)
  echo "== ascp_tool round-trip on $(basename "$image") =="
  ./build-asan/tools/ascp_tool inspect "$image"
  ./build-asan/tools/ascp_tool export "$image" --json "$tmp/bb.json" \
    --trace "$tmp/bb_trace.json"
  python3 -c "import json,sys; json.load(open(sys.argv[1])); json.load(open(sys.argv[2]))" \
    "$tmp/bb.json" "$tmp/bb_trace.json"
  ./build-asan/tools/ascp_tool replay "$image"
  echo "== corrupted image must fail replay with the blackbox CRC error =="
  python3 - "$image" "$tmp/corrupt.blackbox" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], 'rb').read())
data[28 + (len(data) - 28) // 3] ^= 0x01  # flip one payload bit past the header
open(sys.argv[2], 'wb').write(data)
EOF
  if ./build-asan/tools/ascp_tool replay "$tmp/corrupt.blackbox" 2>"$tmp/err.txt"; then
    echo "ERROR: corrupted .blackbox image replayed successfully" >&2
    exit 1
  fi
  if ! grep -q "blackbox CRC mismatch" "$tmp/err.txt"; then
    echo "ERROR: corrupted image did not fail with the blackbox CRC error:" >&2
    cat "$tmp/err.txt" >&2
    exit 1
  fi
  echo "== ascp_tool inspect under ASAN: checkpoint, trace, blackbox + forged lengths =="
  ./build-asan/tools/ascp_tool capture tests/conformance/corpus/trace_diff_ideal.scenario \
    "$tmp/capture.ckpt"
  ./build-asan/tools/ascp_tool record tests/conformance/corpus/trace_diff_ideal.scenario \
    "$tmp/record.strace"
  inspect_and_forge "$tmp/capture.ckpt" 16 18446744073709551607  # 2^64 - 9 bytes
  inspect_and_forge "$tmp/record.strace" 24 1152921504606846975  # 2^60 - 1 samples
  inspect_and_forge "$tmp/record.strace" 16 9218868437227405312  # sample rate +Inf
  inspect_and_forge "$image" 16 18446744073709551607             # 2^64 - 9 bytes
  rm -rf "$tmp"
}

stage_ledger() {
  echo "== perf ledger: medians of 3 runs against baseline.json =="
  bash bench/ledger/run.sh check 3
}

stage_coverage() {
  build_preset coverage
  echo "== tier-1 tests (coverage build) =="
  ctest --preset coverage
  echo "== conformance fuzz smoke (coverage build, reduced sweep) =="
  ./build-coverage/tools/scenario_fuzz --smoke --seed 2026 --runs 40
  echo "== line coverage =="
  python3 scripts/coverage_report.py build-coverage
}

case "$stage" in
  warnings)    stage_warnings;    echo "CI STAGE warnings PASSED";    exit 0 ;;
  headers)     stage_headers;     echo "CI STAGE headers PASSED";     exit 0 ;;
  fuzz-smoke)  stage_fuzz_smoke;  echo "CI STAGE fuzz-smoke PASSED";  exit 0 ;;
  fuzz-corpus) stage_fuzz_corpus; echo "CI STAGE fuzz-corpus PASSED"; exit 0 ;;
  chaos-smoke) stage_chaos_smoke; echo "CI STAGE chaos-smoke PASSED"; exit 0 ;;
  wcet)        stage_wcet;        echo "CI STAGE wcet PASSED";        exit 0 ;;
  replay)      stage_replay;      echo "CI STAGE replay PASSED";      exit 0 ;;
  blackbox)    stage_blackbox;    echo "CI STAGE blackbox PASSED";    exit 0 ;;
  coverage)    stage_coverage;    echo "CI STAGE coverage PASSED";    exit 0 ;;
  ledger)      stage_ledger;      echo "CI STAGE ledger PASSED";      exit 0 ;;
  all) ;;
  *) echo "usage: ci.sh [warnings|headers|coverage|fuzz-smoke|fuzz-corpus|chaos-smoke|wcet|replay|blackbox|ledger]" >&2; exit 2 ;;
esac

stage_headers
build_preset default
stage_warnings
build_preset ubsan
build_preset asan

if command -v clang-tidy >/dev/null 2>&1; then
  build_preset lint
else
  echo "== lint preset skipped: clang-tidy not installed =="
fi

echo "== configure + build: tsan (channel-farm engine, noise crew) =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs" --target test_engine --target test_core

echo "== tsan: channel-farm tests =="
./build-tsan/tests/test_engine
echo "== tsan: noise crew (helper-drawn runs, rewinds of runs that throw, nested runs) and GyroSystem tests =="
./build-tsan/tests/test_core --gtest_filter='NoiseCrew.*:GyroSystem.*'

echo "== tier-1 tests (default) =="
ctest --preset default

echo "== tier-1 tests (ubsan) =="
ctest --preset ubsan

echo "== channel-farm smoke (4 channels, 0.1 s) =="
./build/bench/perf_channel_farm --smoke

echo "== observability: unit tests =="
./build/tests/test_obs

echo "== observability: golden bit-identity (obs on vs off) =="
./build/tests/test_obs --gtest_filter='ObsBitIdentity.*'

echo "== observability: platform_top smoke (JSON snapshot and Chrome trace) =="
./build/tools/platform_top --smoke --json /tmp/ci_obs_snapshot.json --trace /tmp/ci_obs_trace.json

echo "== observability: platform_top fleet health table =="
./build/tools/platform_top --fleet --smoke

echo "== perf ledger: selftest + smoke (seed-2026 output hashes must match their pins) =="
bash bench/ledger/run.sh selftest
bash bench/ledger/run.sh smoke

echo "== platform_lint: event-category coverage =="
./build/tools/platform_lint --events

echo "== platform_lint: shipped platform must be error-free =="
./build/tools/platform_lint

echo "== platform_lint: negative fixtures must be flagged =="
if ./build/tools/platform_lint --map tests/analysis/fixtures/overlapping_map.regmap; then
  echo "ERROR: overlapping_map.regmap was not flagged" >&2
  exit 1
fi
if ./build/tools/platform_lint --asm tests/analysis/fixtures/broken_firmware.asm; then
  echo "ERROR: broken_firmware.asm was not flagged" >&2
  exit 1
fi

stage_wcet
stage_fuzz_smoke
stage_fuzz_corpus
stage_chaos_smoke
stage_replay
stage_blackbox

echo "CI PASSED"
