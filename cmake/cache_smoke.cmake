# Result-cache smoke driver: exercise smt_sweep's content-addressed
# store end to end. Invoked by ctest (see tools/CMakeLists.txt) as:
#   cmake -DSWEEP=... -DCHECKER=... -DHISTORY=... -DREGISTRY_SWEEP=...
#         -DOUT_DIR=... -P cache_smoke.cmake
#
# REGISTRY_SWEEP is the registry_sweep fixture's cold default-manifest
# sweep; its reports are the reference for every default job here. It is
# only read: everything this script writes lands under OUT_DIR. The
# manifest is the three n = 64 LU jobs, the cheapest default jobs, and
# one self-test. Only phases 1, 3, 5 and 8 simulate: the phases that test
# cache handling seed their stores by copying phase 1's objects.
#
# Phases:
#   1. cold: sweep the manifest (one deterministically-failing self-test
#      included — failures are results too) against an empty --cache.
#      Every job misses; every completed outcome is stored; every ok
#      job's report equals the fixture's byte for byte.
#   2. warm: the same manifest against the same cache into a fresh out
#      dir. Every job must hit ("cached":false must not appear), every
#      report/dump must be byte-identical to the cold run's, and the
#      index must be byte-identical modulo the wall_ms and cached
#      fields. The metrics snapshot must cross-check (check_reports
#      enforces lookups == hits + misses + verify_failed, hits == index
#      cached-count, ...).
#   3. audit: the same manifest with --cache-verify — every hit is
#      re-simulated and byte-compared before being trusted; the metrics
#      must record every hit as verified and the sweep must still
#      succeed (modulo the injected failure).
#   4. idempotent history: ingesting the cold and warm sweeps into one
#      fresh history store must record runs exactly once — the two
#      indexes differ only in wall-clock fields, so they share a stable
#      run id and the second ingest is a complete no-op. The exact gate:
#      `check` accepts the cold sweep and flags, with exit 1, a report
#      one cycle off, a baselined job that did not end ok, a history
#      file with no trajectory for the sweep's config, an ok job with no
#      history file (the cold sweep against an empty store), and the
#      cold sweep once a perturbed copy has been ingested over it;
#      `list` refuses a malformed history file with exit 3.
#   5. partial store: an interrupted sweep finishes through --cache.
#      A fresh store and out dir seeded with two of the jobs, as a killed
#      sweep leaves them (phase 1's objects; an object's directory is its
#      index entry's key), then all four swept into them: the stored two
#      hit, only the other two simulate and store, and the two reports
#      stay byte-identical to the fixture's.
#   6. guard rails: --pipeview or --telemetry with --cache must be
#      refused up front.
#   7. claim order: smt_sweep hands the pool its jobs longest first by
#      the bench/history baselines under its working directory. The
#      manifest swept from a directory without one claims in manifest
#      order; ingested into <dir>/bench/history and swept again from
#      <dir>, its first attempt is the job with the most baseline cycles,
#      and reports and index (modulo wall_ms) stay byte-identical. A
#      truncated baseline costs its job the estimate and nothing else.
#      All three sweeps run against a copy of phase 1's store, so every
#      job hits and nothing is simulated; a hit is claimed, traced and
#      estimated like a miss.
#   8. divergent object: a copy of phase 1's store in which one
#      counter of lu.serial.n64's stored report is one higher (still
#      valid JSON, so the object loads as a hit). --cache-verify on that
#      job must re-simulate it, count cache.verify_failed 1, end the job
#      as cache_verify_failed, write the freshly simulated report (the
#      fixture's bytes), not the planted ones, and exit non-zero. An
#      audit that trusted the hit instead of re-simulating would pass
#      phase 3 but not this one.
include("${CMAKE_CURRENT_LIST_DIR}/bump_counter.cmake")

set(default_jobs lu.serial.n64 lu.tlp-coarse.n64 lu.tlp-pfetch.n64)
set(manifest ${default_jobs} selftest.deadlock)

# same_as_fixture(RUN JOB...): each JOB's report in OUT_DIR/RUN equals
# the fixture's byte for byte.
function(same_as_fixture run)
  foreach(job IN LISTS ARGN)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
      "${REGISTRY_SWEEP}/reports/${job}.json"
      "${OUT_DIR}/${run}/reports/${job}.json" RESULT_VARIABLE cmp)
    if(NOT cmp EQUAL 0)
      message(FATAL_ERROR "${run} sweep report ${job}.json differs from the "
        "registry sweep's")
    endif()
  endforeach()
endfunction()

file(REMOVE_RECURSE "${OUT_DIR}")

# Phase 1: cold sweep. selftest.deadlock makes the exit code nonzero;
# everything else about the sweep must be intact.
execute_process(COMMAND "${SWEEP}" --jobs 1 --out "${OUT_DIR}/cold"
  --cache "${OUT_DIR}/cache" --metrics "${OUT_DIR}/cold/metrics.json"
  ${manifest} RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "cold sweep with a failing self-test exited 0")
endif()
file(READ "${OUT_DIR}/cold/sweep_index.json" cold_index)
string(FIND "${cold_index}" "\"cached\":true" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "cold sweep against an empty cache reported a hit")
endif()
# All four outcomes (ok x3 + deadlock) are deterministic completions:
# four objects must have been stored.
file(GLOB objects "${OUT_DIR}/cache/objects/*")
list(LENGTH objects n)
if(NOT n EQUAL 4)
  message(FATAL_ERROR "cache holds ${n} objects after the cold sweep, "
    "expected 4")
endif()
same_as_fixture(cold ${default_jobs})
execute_process(COMMAND "${CHECKER}" "${OUT_DIR}/cold/reports"
  --metrics "${OUT_DIR}/cold/metrics.json"
  --index "${OUT_DIR}/cold/sweep_index.json" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cold sweep artifacts failed validation: ${rc}")
endif()

# Phase 2: warm sweep — 100% hits, byte-identical artifacts.
execute_process(COMMAND "${SWEEP}" --jobs 1 --out "${OUT_DIR}/warm"
  --cache "${OUT_DIR}/cache" --metrics "${OUT_DIR}/warm/metrics.json"
  ${manifest} RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "warm sweep with a failing self-test exited 0")
endif()
file(READ "${OUT_DIR}/warm/sweep_index.json" warm_index)
string(FIND "${warm_index}" "\"cached\":false" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "warm sweep missed the cache for at least one job")
endif()

file(GLOB cold_reports "${OUT_DIR}/cold/reports/*.json")
list(LENGTH cold_reports n)
if(NOT n EQUAL 4)
  message(FATAL_ERROR "cold sweep wrote ${n} reports, expected 4")
endif()
foreach(report IN LISTS cold_reports)
  get_filename_component(fname "${report}" NAME)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${report}" "${OUT_DIR}/warm/reports/${fname}" RESULT_VARIABLE cmp)
  if(NOT cmp EQUAL 0)
    message(FATAL_ERROR "cached report ${fname} differs from cold run")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  "${OUT_DIR}/cold/dumps/selftest.deadlock.dump.json"
  "${OUT_DIR}/warm/dumps/selftest.deadlock.dump.json" RESULT_VARIABLE cmp)
if(NOT cmp EQUAL 0)
  message(FATAL_ERROR "cached core dump differs from cold run")
endif()

# Index byte-identity modulo wall-clock data: strip wall_ms and cached
# from both and demand equality.
foreach(which cold warm)
  string(REGEX REPLACE "\"wall_ms\":[0-9.e+-]+" "\"wall_ms\":0"
    ${which}_norm "${${which}_index}")
  string(REGEX REPLACE "\"cached\":(true|false)" "\"cached\":x"
    ${which}_norm "${${which}_norm}")
endforeach()
if(NOT cold_norm STREQUAL warm_norm)
  message(FATAL_ERROR
    "warm index differs from cold beyond wall_ms/cached")
endif()

execute_process(COMMAND "${CHECKER}" "${OUT_DIR}/warm/reports"
  --metrics "${OUT_DIR}/warm/metrics.json"
  --index "${OUT_DIR}/warm/sweep_index.json" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm sweep artifacts failed validation: ${rc}")
endif()

# Phase 3: determinism audit — every hit re-simulated and byte-compared.
execute_process(COMMAND "${SWEEP}" --jobs 1 --out "${OUT_DIR}/audit"
  --cache "${OUT_DIR}/cache" --cache-verify
  --metrics "${OUT_DIR}/audit/metrics.json" ${manifest} RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "audit sweep with a failing self-test exited 0")
endif()
file(READ "${OUT_DIR}/audit/metrics.json" audit_metrics)
foreach(needle "\"cache.hits\":4" "\"cache.verified\":4"
    "\"cache.verify_failed\":0")
  string(FIND "${audit_metrics}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "audit metrics lack ${needle}")
  endif()
endforeach()
execute_process(COMMAND "${CHECKER}" "${OUT_DIR}/audit/reports"
  --metrics "${OUT_DIR}/audit/metrics.json"
  --index "${OUT_DIR}/audit/sweep_index.json" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "audit sweep artifacts failed validation: ${rc}")
endif()

# Phase 4: the cold and warm sweeps are the same work — the history
# store must assign them the same stable run id and ingest exactly once.
execute_process(COMMAND "${HISTORY}" ingest --sweep "${OUT_DIR}/cold"
  --history "${OUT_DIR}/history" RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "history ingest of the cold sweep failed: ${rc}")
endif()
if(NOT out MATCHES "ingested 3 run")
  message(FATAL_ERROR "cold ingest did not record 3 runs: ${out}")
endif()
execute_process(COMMAND "${HISTORY}" ingest --sweep "${OUT_DIR}/warm"
  --history "${OUT_DIR}/history" RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "history ingest of the warm sweep failed: ${rc}")
endif()
if(NOT out MATCHES "ingested 0 run.*3 already present")
  message(FATAL_ERROR
    "warm ingest was not idempotent with the cold sweep: ${out}")
endif()

# check_history(EXPECTED SWEEP HISTORY WHAT): `smt_history check` of
# SWEEP against HISTORY must exit EXPECTED.
function(check_history expected sweep history what)
  execute_process(COMMAND "${HISTORY}" check --sweep "${sweep}"
    --history "${history}" RESULT_VARIABLE rc OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR "history check of ${what} exited ${rc}, not "
      "${expected}: ${out}${err}")
  endif()
endfunction()

check_history(0 "${OUT_DIR}/cold" "${OUT_DIR}/history" "the cold sweep")

# One report's top-level cycles one higher: still a valid report, but no
# longer the baseline.
file(COPY "${OUT_DIR}/cold/" DESTINATION "${OUT_DIR}/bumped")
set(bumped_report "${OUT_DIR}/bumped/reports/lu.tlp-coarse.n64.json")
file(READ "${bumped_report}" report_json)
bump_counter(report_json cycles)
file(WRITE "${bumped_report}" "${report_json}")
check_history(1 "${OUT_DIR}/bumped" "${OUT_DIR}/history"
  "a report one cycle off")

# A baselined job that did not end ok.
file(COPY "${OUT_DIR}/cold/" DESTINATION "${OUT_DIR}/failed")
string(REPLACE "\"name\":\"lu.serial.n64\",\"outcome\":\"ok\""
  "\"name\":\"lu.serial.n64\",\"outcome\":\"verify_failed\""
  failed_index "${cold_index}")
string(REPLACE "\"failed\":1," "\"failed\":2," failed_index
  "${failed_index}")
if(failed_index STREQUAL cold_index)
  message(FATAL_ERROR "could not mark lu.serial.n64 failed in the index")
endif()
file(WRITE "${OUT_DIR}/failed/sweep_index.json" "${failed_index}")
check_history(1 "${OUT_DIR}/failed" "${OUT_DIR}/history"
  "a baselined job that ended verify_failed")

# No baseline at all: every ok job of the cold sweep is a finding.
file(MAKE_DIRECTORY "${OUT_DIR}/history-empty")
check_history(1 "${OUT_DIR}/cold" "${OUT_DIR}/history-empty"
  "a sweep whose ok jobs have no history file")

# A history file whose only trajectory belongs to another config.
file(COPY "${OUT_DIR}/history/" DESTINATION "${OUT_DIR}/history-other")
set(other "${OUT_DIR}/history-other/BENCH_lu.tlp-coarse.n64.json")
file(READ "${other}" other_json)
string(REGEX REPLACE "\"config_hash\":\"[0-9a-f]+\""
  "\"config_hash\":\"0000000000000000\"" other_json "${other_json}")
file(WRITE "${other}" "${other_json}")
check_history(1 "${OUT_DIR}/cold" "${OUT_DIR}/history-other"
  "a history file with another config's trajectory")

# Re-baselining on the perturbed copy: the original run no longer passes.
execute_process(COMMAND "${HISTORY}" ingest --sweep "${OUT_DIR}/bumped"
  --history "${OUT_DIR}/history" RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "ingested 1 run")
  message(FATAL_ERROR "ingest of the perturbed sweep (${rc}): ${out}")
endif()
check_history(1 "${OUT_DIR}/cold" "${OUT_DIR}/history"
  "the cold sweep after a perturbed baseline was ingested")

# `list` reads through the same strict loader: a trajectory without runs
# is a malformed file, not an empty one.
file(WRITE "${OUT_DIR}/history-bad/BENCH_bad.json"
  "{\"schema\":\"smt-bench-history/1\",\"experiment\":\"bad\","
  "\"trajectories\":[{\"config_hash\":\"0000000000000000\","
  "\"report_schema\":\"smt-run-report/1\"}]}")
execute_process(COMMAND "${HISTORY}" list --history "${OUT_DIR}/history-bad"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "list of a history file with a run-less trajectory "
    "exited ${rc}, not 3")
endif()

# Phase 5: a store and out dir holding part of the manifest, as a killed
# sweep leaves them: phase 1's objects and the fixture's reports for two
# jobs. Re-running the whole manifest into the same store and out dir
# simulates only the jobs the store lacks.
set(stored lu.serial.n64 lu.tlp-coarse.n64)
string(JSON njobs LENGTH "${cold_index}" jobs)
math(EXPR last "${njobs} - 1")
foreach(i RANGE ${last})
  string(JSON job GET "${cold_index}" jobs ${i} name)
  list(FIND stored "${job}" at)
  if(NOT at EQUAL -1)
    string(JSON key GET "${cold_index}" jobs ${i} key)
    file(COPY "${OUT_DIR}/cache/objects/${key}"
      DESTINATION "${OUT_DIR}/partial-cache/objects")
    file(COPY "${REGISTRY_SWEEP}/reports/${job}.json"
      DESTINATION "${OUT_DIR}/partial/reports")
  endif()
endforeach()
execute_process(COMMAND "${SWEEP}" --jobs 1 --out "${OUT_DIR}/partial"
  --cache "${OUT_DIR}/partial-cache"
  --metrics "${OUT_DIR}/partial/metrics.json" ${manifest}
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "finishing sweep with a failing self-test exited 0")
endif()
file(READ "${OUT_DIR}/partial/metrics.json" partial_metrics)
foreach(needle "\"cache.hits\":2" "\"cache.misses\":2" "\"cache.stores\":2")
  string(FIND "${partial_metrics}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "finishing sweep metrics lack ${needle}")
  endif()
endforeach()
same_as_fixture(partial ${stored})
execute_process(COMMAND "${CHECKER}" "${OUT_DIR}/partial/reports"
  --metrics "${OUT_DIR}/partial/metrics.json"
  --index "${OUT_DIR}/partial/sweep_index.json" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "finishing sweep artifacts failed validation: ${rc}")
endif()

# Phase 6: incompatible-flag guards.
foreach(option --pipeview --telemetry)
  execute_process(COMMAND "${SWEEP}" ${option} --cache "${OUT_DIR}/cache"
    --out "${OUT_DIR}/never" lu.serial.n64 RESULT_VARIABLE rc
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${option} with --cache was not refused")
  endif()
  if(EXISTS "${OUT_DIR}/never/sweep_index.json")
    message(FATAL_ERROR "refused ${option} sweep still wrote an index")
  endif()
endforeach()

# Phase 7: claim order. Every sweep here runs on one worker with a
# trace, so the trace's first attempt is the first job claimed; the
# estimate count is read off the human-format "sweep starting" record.
set(ENV{SMT_LOG_LEVEL} info)
set(ENV{SMT_LOG_FORMAT} human)
# first_attempt(TRACE OUT): OUT = the job name of TRACE's earliest span.
function(first_attempt trace out)
  file(READ "${trace}" json)
  string(JSON n LENGTH "${json}" traceEvents)
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    string(JSON ph GET "${json}" traceEvents ${i} ph)
    if(ph STREQUAL "X")
      string(JSON name GET "${json}" traceEvents ${i} name)
      set(${out} "${name}" PARENT_SCOPE)
      return()
    endif()
  endforeach()
  message(FATAL_ERROR "${trace} holds no attempt span")
endfunction()

# Its longest job is not listed first, so the two orders differ.
set(order_manifest lu.serial.n64 lu.tlp-pfetch.n64 selftest.deadlock)
file(COPY "${OUT_DIR}/cache/" DESTINATION "${OUT_DIR}/order-cache")

# order_sweep(TAG CWD): sweeps order_manifest from working directory CWD
# into ${OUT_DIR}/order-TAG against the copy of phase 1's store; sets
# order_rc, order_log (stderr) and order_first (the first job claimed).
macro(order_sweep tag cwd)
  execute_process(COMMAND "${SWEEP}" --jobs 1 --out "${OUT_DIR}/order-${tag}"
    --cache "${OUT_DIR}/order-cache"
    --trace "${OUT_DIR}/order-${tag}/sweep.trace.json" ${order_manifest}
    WORKING_DIRECTORY "${cwd}" RESULT_VARIABLE order_rc
    ERROR_VARIABLE order_log OUTPUT_QUIET)
  first_attempt("${OUT_DIR}/order-${tag}/sweep.trace.json" order_first)
endmacro()

# same_outputs(TAG): order-TAG's exit code, reports and index (modulo
# wall_ms) are those of the manifest-order sweep.
function(same_outputs tag)
  if(NOT order_rc EQUAL manifest_rc)
    message(FATAL_ERROR "${tag} sweep exited ${order_rc}, the manifest-order "
      "one ${manifest_rc}")
  endif()
  file(GLOB reports "${OUT_DIR}/order-manifest/reports/*.json")
  list(LENGTH reports n)
  if(NOT n EQUAL 3)
    message(FATAL_ERROR "manifest-order sweep wrote ${n} reports, expected 3")
  endif()
  foreach(report IN LISTS reports)
    get_filename_component(fname "${report}" NAME)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
      "${report}"
      "${OUT_DIR}/order-${tag}/reports/${fname}" RESULT_VARIABLE cmp)
    if(NOT cmp EQUAL 0)
      message(FATAL_ERROR "${tag} sweep report ${fname} differs from the "
        "manifest-order sweep's")
    endif()
  endforeach()
  foreach(which manifest ${tag})
    file(READ "${OUT_DIR}/order-${which}/sweep_index.json" index)
    string(REGEX REPLACE "\"wall_ms\":[0-9.e+-]+" "\"wall_ms\":0"
      ${which}_norm "${index}")
  endforeach()
  if(NOT manifest_norm STREQUAL ${tag}_norm)
    message(FATAL_ERROR "${tag} sweep index differs from the manifest-order "
      "one beyond wall_ms")
  endif()
endfunction()

# No bench/history under OUT_DIR: manifest order.
order_sweep(manifest "${OUT_DIR}")
set(manifest_rc ${order_rc})
if(manifest_rc EQUAL 0)
  message(FATAL_ERROR "manifest-order sweep with a failing self-test "
    "exited 0")
endif()
list(GET order_manifest 0 first_listed)
if(NOT order_first STREQUAL first_listed OR
   NOT order_log MATCHES "estimated=0 ")
  message(FATAL_ERROR "a sweep without bench/history claimed "
    "${order_first} first, not ${first_listed}: ${order_log}")
endif()

# The job with the most cycles, from the sweep's own index, which must
# be all hits.
file(READ "${OUT_DIR}/order-manifest/sweep_index.json" order_index)
string(FIND "${order_index}" "\"cached\":false" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "a claim-order sweep missed the copied store")
endif()
string(JSON njobs LENGTH "${order_index}" jobs)
math(EXPR last "${njobs} - 1")
set(longest "")
set(longest_cycles -1)
foreach(i RANGE ${last})
  string(JSON outcome GET "${order_index}" jobs ${i} outcome)
  string(JSON cycles GET "${order_index}" jobs ${i} cycles)
  if(outcome STREQUAL "ok" AND cycles GREATER longest_cycles)
    string(JSON longest GET "${order_index}" jobs ${i} name)
    set(longest_cycles ${cycles})
  endif()
endforeach()
if(longest STREQUAL first_listed)
  message(FATAL_ERROR "the manifest lists its longest job first; the "
    "claim-order phase cannot tell the orders apart")
endif()

set(order_root "${OUT_DIR}/order-root")
execute_process(COMMAND "${HISTORY}" ingest --sweep "${OUT_DIR}/order-manifest"
  --history "${order_root}/bench/history" RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "ingested 2 run")
  message(FATAL_ERROR "ingest of the manifest-order sweep (${rc}): ${out}")
endif()

# From a directory holding the baselines: longest first.
order_sweep(longest "${order_root}")
if(NOT order_first STREQUAL longest OR
   NOT order_log MATCHES "estimated=2 ")
  message(FATAL_ERROR "a sweep with bench/history claimed ${order_first} "
    "first, not the longest job ${longest}: ${order_log}")
endif()
same_outputs(longest)

# A truncated baseline: its job loses the estimate and nothing else.
set(cut "${order_root}/bench/history/BENCH_${longest}.json")
file(READ "${cut}" whole)
string(LENGTH "${whole}" len)
math(EXPR half "${len} / 2")
string(SUBSTRING "${whole}" 0 ${half} whole)
file(WRITE "${cut}" "${whole}")
order_sweep(truncated "${order_root}")
if(order_first STREQUAL longest OR NOT order_log MATCHES "estimated=1 ")
  message(FATAL_ERROR "a sweep with a truncated baseline for ${longest} "
    "still estimated it: first ${order_first}: ${order_log}")
endif()
same_outputs(truncated)

# Phase 8: a planted divergent object must fail the audit.
set(planted_job lu.serial.n64)
file(COPY "${OUT_DIR}/cache/" DESTINATION "${OUT_DIR}/divergent-cache")
string(JSON njobs LENGTH "${cold_index}" jobs)
math(EXPR last "${njobs} - 1")
set(planted_key "")
foreach(i RANGE ${last})
  string(JSON job GET "${cold_index}" jobs ${i} name)
  if(job STREQUAL planted_job)
    string(JSON planted_key GET "${cold_index}" jobs ${i} key)
  endif()
endforeach()
set(planted "${OUT_DIR}/divergent-cache/objects/${planted_key}/report.json")
if(planted_key STREQUAL "" OR NOT EXISTS "${planted}")
  message(FATAL_ERROR "no stored object for ${planted_job}")
endif()
file(READ "${planted}" planted_json)
bump_counter(planted_json uops_retired)
string(JSON planted_schema GET "${planted_json}" schema)  # still valid JSON
file(WRITE "${planted}" "${planted_json}")
execute_process(COMMAND "${SWEEP}" --jobs 1 --out "${OUT_DIR}/divergent"
  --cache "${OUT_DIR}/divergent-cache" --cache-verify
  --metrics "${OUT_DIR}/divergent/metrics.json" ${planted_job}
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "an audit of a divergent stored report exited 0")
endif()
file(READ "${OUT_DIR}/divergent/metrics.json" divergent_metrics)
foreach(needle "\"cache.verify_failed\":1" "\"cache.verified\":0"
    "\"cache.hits\":0")
  string(FIND "${divergent_metrics}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "divergent-object audit metrics lack ${needle}")
  endif()
endforeach()
file(READ "${OUT_DIR}/divergent/sweep_index.json" divergent_index)
string(JSON outcome GET "${divergent_index}" jobs 0 outcome)
if(NOT outcome STREQUAL "cache_verify_failed")
  message(FATAL_ERROR "the divergent job ended ${outcome}, not "
    "cache_verify_failed")
endif()
same_as_fixture(divergent ${planted_job})
