# Sweep smoke driver: exercise the smt_sweep orchestrator end to end.
# Invoked by ctest (see tools/CMakeLists.txt) as:
#   cmake -DSWEEP=... -DCHECKER=... -DREGISTRY_SWEEP=... -DOUT_DIR=...
#     -P sweep_smoke.cmake
#
# REGISTRY_SWEEP is the registry_sweep fixture's cold default-manifest
# sweep (one worker per hardware thread, claimed longest first, with
# --metrics). It is the reference every report here is compared with,
# and it is only read: everything this script writes lands under
# OUT_DIR. The manifest is the three n = 64 LU jobs, the cheapest default
# jobs that cover one context, two contexts and the halting SPR helper.
#
# Five phases:
#   1. serial (--jobs 1) sweep of the manifest: every report must be
#      byte-identical to the fixture's (determinism gate across worker
#      count and claim order), and piped stderr carries no \r progress;
#   2. the same manifest on 4 workers with the observability artifacts
#      (--metrics/--trace) enabled — every per-job report must again be
#      byte-identical to the fixture's (host-side metrics/tracing must
#      not leak into simulation artifacts: phase 1 runs with neither, the
#      fixture with --metrics only), and the metrics snapshot must
#      cross-check against the sweep index;
#   3. lu.serial.n64 with deliberately failing self-test jobs injected —
#      the sweep must exit nonzero and name every failed job on stderr,
#      yet still write a complete sweep_index.json, a valid
#      (check_reports-clean) report for every job including the failed
#      ones, and an smt-core-dump/1 under dumps/ for every job that died
#      diagnosably; the index must cross-check against its metrics, and
#      a copy whose "failed" count is edited to 0 must not;
#   4. the manifest again with --pipeview — Kanata artifacts must appear
#      per job while every report stays byte-identical to the fixture's
#      (pipeline tracing must not leak into measurements);
#   5. a real watchdog expiry: lu.serial.n64 under --timeout-ms 1 with a
#      --cache must end as "timeout" after one attempt (exit 1), store
#      nothing, mark the kill with a "watchdog" instant in its sweep
#      trace, and leave reports, trace, metrics and index that validate; the
#      same --cache without the watchdog must then finish the job (one
#      miss, exit 0) with a report byte-identical to the fixture's.
set(manifest lu.serial.n64 lu.tlp-coarse.n64 lu.tlp-pfetch.n64)

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

execute_process(COMMAND "${SWEEP}" --jobs 1 --out "${OUT_DIR}/serial"
  ${manifest} RESULT_VARIABLE rc ERROR_VARIABLE serial_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serial sweep failed: ${rc}")
endif()

# Regression gate for the progress line: when stderr is a pipe (as here),
# the interactive \r-redrawn progress display must stay silent.
string(ASCII 13 CR)
string(FIND "${serial_err}" "${CR}" cr_pos)
if(NOT cr_pos EQUAL -1)
  message(FATAL_ERROR "sweep emitted a \\r progress line on piped stderr")
endif()

list(LENGTH manifest expected)
file(GLOB serial_reports "${OUT_DIR}/serial/reports/*.json")
list(LENGTH serial_reports n)
if(NOT n EQUAL expected)
  message(FATAL_ERROR "serial sweep wrote ${n} reports, expected ${expected}")
endif()
same_as_fixture(serial ${manifest})
execute_process(COMMAND "${CHECKER}" "${OUT_DIR}/serial/reports"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serial sweep reports failed validation: ${rc}")
endif()

execute_process(COMMAND "${SWEEP}" --jobs 4 --out "${OUT_DIR}/parallel"
  --metrics "${OUT_DIR}/parallel/metrics.json"
  --trace "${OUT_DIR}/parallel/trace/sweep.trace.json"
  ${manifest} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "parallel sweep failed: ${rc}")
endif()
same_as_fixture(parallel ${manifest})

# Parallel pass also validates the Chrome trace and cross-checks the
# metrics snapshot against the sweep index.
execute_process(COMMAND "${CHECKER}" "${OUT_DIR}/parallel/reports"
  "${OUT_DIR}/parallel/trace"
  --metrics "${OUT_DIR}/parallel/metrics.json"
  --index "${OUT_DIR}/parallel/sweep_index.json"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "parallel sweep artifacts failed validation: ${rc}")
endif()

# Failure injection: a deadlock, a blown cycle budget and a verification
# failure ride along with one healthy job.
set(failing selftest.deadlock selftest.budget selftest.verify-fail)
execute_process(COMMAND "${SWEEP}" --jobs 2 --out "${OUT_DIR}/injected"
  --metrics "${OUT_DIR}/injected/metrics.json" lu.serial.n64 ${failing}
  RESULT_VARIABLE rc ERROR_VARIABLE injected_err)
if(rc EQUAL 0)
  message(FATAL_ERROR "sweep with injected failures unexpectedly exited 0")
endif()
foreach(job IN LISTS failing)
  string(FIND "${injected_err}" "${job}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "failed job ${job} is not named on stderr")
  endif()
endforeach()

if(NOT EXISTS "${OUT_DIR}/injected/sweep_index.json")
  message(FATAL_ERROR "failed sweep did not write sweep_index.json")
endif()
file(READ "${OUT_DIR}/injected/sweep_index.json" index)
foreach(needle
    "\"schema\":\"smt-sweep-index/1\""
    "\"failed\":3"
    "\"outcome\":\"deadlock\""
    "\"outcome\":\"cycle_budget_exceeded\""
    "\"outcome\":\"verify_failed\""
    "\"outcome\":\"ok\"")
  string(FIND "${index}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "sweep_index.json lacks ${needle}")
  endif()
endforeach()

# Every job — failed ones included — must have left a schema-valid report.
file(GLOB injected_reports "${OUT_DIR}/injected/reports/*.json")
list(LENGTH injected_reports n)
if(NOT n EQUAL 4)
  message(FATAL_ERROR "injected sweep wrote ${n} reports, expected 4")
endif()

# The diagnosably-dead jobs (deadlock, blown budget) must have left core
# dumps that the index references; the healthy and verify-failed jobs
# must not (there is no post-mortem state worth dumping for a wrong
# answer). check_reports --dumps validates the dump schema.
foreach(needle
    "\"dump\":\"dumps/selftest.deadlock.dump.json\""
    "\"dump\":\"dumps/selftest.budget.dump.json\"")
  string(FIND "${index}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "sweep_index.json lacks ${needle}")
  endif()
endforeach()
file(GLOB injected_dumps "${OUT_DIR}/injected/dumps/*.json")
list(LENGTH injected_dumps n)
if(NOT n EQUAL 2)
  message(FATAL_ERROR "injected sweep wrote ${n} dumps, expected 2")
endif()
execute_process(COMMAND "${CHECKER}" "${OUT_DIR}/injected/reports"
  --dumps "${OUT_DIR}/injected/dumps"
  --metrics "${OUT_DIR}/injected/metrics.json"
  --index "${OUT_DIR}/injected/sweep_index.json" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "injected sweep artifacts failed validation: ${rc}")
endif()

# An index whose "failed" count disagrees with its entries is a finding
# (exit 1), even though the metrics snapshot still matches the entries.
string(REPLACE "\"failed\":3" "\"failed\":0" forged "${index}")
file(WRITE "${OUT_DIR}/injected/forged_index.json" "${forged}")
execute_process(COMMAND "${CHECKER}" "${OUT_DIR}/injected/reports"
  --metrics "${OUT_DIR}/injected/metrics.json"
  --index "${OUT_DIR}/injected/forged_index.json"
  RESULT_VARIABLE rc ERROR_VARIABLE forged_err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "check_reports accepted an index with a forged "
    "failed count: exit ${rc}")
endif()
string(FIND "${forged_err}" "failed: 0" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "forged-index finding does not name the failed "
    "count: ${forged_err}")
endif()

# --pipeview: Kanata traces appear per job, reports stay byte-identical.
execute_process(COMMAND "${SWEEP}" --jobs 2 --pipeview
  --out "${OUT_DIR}/pipeview" ${manifest} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pipeview sweep failed: ${rc}")
endif()
same_as_fixture(pipeview ${manifest})
file(GLOB kanata_files "${OUT_DIR}/pipeview/pipeview/*.kanata")
list(LENGTH kanata_files n)
if(NOT n EQUAL expected)
  message(FATAL_ERROR "pipeview sweep wrote ${n} Kanata files, "
    "expected ${expected}")
endif()
foreach(kf IN LISTS kanata_files)
  file(READ "${kf}" head LIMIT 16)
  if(NOT head MATCHES "^Kanata")
    message(FATAL_ERROR "${kf} does not start with a Kanata header")
  endif()
endforeach()

# A real watchdog expiry is final: the timed-out job is indexed once and
# never stored, and re-running with the same --cache finishes it.
set(store "${OUT_DIR}/timeout_store")
execute_process(COMMAND "${SWEEP}" --jobs 1 --timeout-ms 1 --cache "${store}"
  --out "${OUT_DIR}/timeout" --metrics "${OUT_DIR}/timeout/metrics.json"
  --trace "${OUT_DIR}/timeout/trace/sweep.trace.json"
  lu.serial.n64 RESULT_VARIABLE rc ERROR_VARIABLE timeout_err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "watchdog sweep: exit ${rc}, want 1:\n${timeout_err}")
endif()
file(READ "${OUT_DIR}/timeout/sweep_index.json" index)
foreach(needle "\"outcome\":\"timeout\"" "\"attempts\":1,")
  string(FIND "${index}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "watchdog sweep index lacks ${needle}:\n${index}")
  endif()
endforeach()
file(READ "${OUT_DIR}/timeout/metrics.json" metrics)
if(NOT metrics MATCHES "\"cache.stores\":0[,}]")
  message(FATAL_ERROR "a timed-out job was stored:\n${metrics}")
endif()
file(READ "${OUT_DIR}/timeout/trace/sweep.trace.json" trace)
string(FIND "${trace}" "\"name\":\"watchdog\"" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "sweep trace lacks the watchdog instant:\n${trace}")
endif()
execute_process(COMMAND "${CHECKER}" "${OUT_DIR}/timeout/reports"
  "${OUT_DIR}/timeout/trace" --metrics "${OUT_DIR}/timeout/metrics.json"
  --index "${OUT_DIR}/timeout/sweep_index.json" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "watchdog sweep artifacts failed validation: ${rc}")
endif()

execute_process(COMMAND "${SWEEP}" --jobs 1 --cache "${store}"
  --out "${OUT_DIR}/finish" --metrics "${OUT_DIR}/finish/metrics.json"
  lu.serial.n64 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "finishing sweep failed: ${rc}")
endif()
file(READ "${OUT_DIR}/finish/metrics.json" metrics)
if(NOT metrics MATCHES "\"cache.misses\":1[,}]")
  message(FATAL_ERROR "finishing sweep did not simulate the timed-out "
    "job:\n${metrics}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  "${REGISTRY_SWEEP}/reports/lu.serial.n64.json"
  "${OUT_DIR}/finish/reports/lu.serial.n64.json" RESULT_VARIABLE cmp)
if(NOT cmp EQUAL 0)
  message(FATAL_ERROR "finished report differs from the registry sweep's")
endif()
