# Smoke test driver: run a bench binary with report emission enabled —
# and, when TRACE_DIR is given, with telemetry enabled too; when PROFILE
# is set, with the per-PC profiler on; when INTERFERENCE is set, with
# interference attribution on — then validate the artifacts with
# check_reports. When ANNOTATE is given, smt_annotate must also accept
# one emitted report. When DIFF is given, report_diff must accept that
# report against itself and reject (exit 1) both a still-valid copy that
# retired one more branch and a copy truncated to its schema, cycles and
# totals, which is not a valid run report. Invoked by
# ctest (see tools/CMakeLists.txt) as:
#   cmake -DBENCH=... -DCHECKER=... -DREPORT_DIR=... [-DTRACE_DIR=...]
#     [-DPROFILE=1] [-DINTERFERENCE=1] [-DANNOTATE=...] [-DDIFF=...]
#     -P report_smoke.cmake
include("${CMAKE_CURRENT_LIST_DIR}/bump_counter.cmake")

file(REMOVE_RECURSE "${REPORT_DIR}")
file(MAKE_DIRECTORY "${REPORT_DIR}")

set(ENV{SMT_BENCH_REPORT_DIR} "${REPORT_DIR}")
if(TRACE_DIR)
  file(REMOVE_RECURSE "${TRACE_DIR}")
  file(MAKE_DIRECTORY "${TRACE_DIR}")
  set(ENV{SMT_BENCH_TRACE_DIR} "${TRACE_DIR}")
endif()
if(PROFILE)
  set(ENV{SMT_BENCH_PROFILE} "1")
endif()
if(INTERFERENCE)
  set(ENV{SMT_BENCH_INTERFERENCE} "1")
endif()
execute_process(COMMAND "${BENCH}" RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench binary failed: ${bench_rc}")
endif()

if(TRACE_DIR)
  execute_process(COMMAND "${CHECKER}" "${REPORT_DIR}" "${TRACE_DIR}"
    RESULT_VARIABLE rc)
else()
  execute_process(COMMAND "${CHECKER}" "${REPORT_DIR}" RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "artifacts failed validation: ${rc}")
endif()

if(ANNOTATE)
  file(GLOB reports "${REPORT_DIR}/*.json")
  list(SORT reports)
  list(GET reports 0 report)
  execute_process(COMMAND "${ANNOTATE}" "${report}" --top 5
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "smt_annotate rejected ${report}: ${rc}")
  endif()
endif()

if(DIFF)
  file(GLOB reports "${REPORT_DIR}/*.json")
  list(SORT reports)
  list(GET reports 0 report)
  execute_process(COMMAND "${DIFF}" "${report}" "${report}"
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report_diff rejected ${report} against itself: ${rc}")
  endif()
  file(READ "${report}" report_json)

  # No report invariant ties branches_retired to another counter, so a
  # copy with one more branch in the CPU totals and in one telemetry
  # window stays a valid report: only the exact gate can catch it.
  set(head "${report_json}")
  set(tail "")
  string(FIND "${report_json}" "\"timeseries\":" ts_at)
  if(NOT ts_at EQUAL -1)
    string(SUBSTRING "${report_json}" 0 ${ts_at} head)
    string(SUBSTRING "${report_json}" ${ts_at} -1 tail)
    bump_counter(tail branches_retired)
  endif()
  bump_counter(head branches_retired)
  set(bumped_dir "${REPORT_DIR}/bumped")
  file(MAKE_DIRECTORY "${bumped_dir}")
  file(WRITE "${bumped_dir}/bumped.json" "${head}${tail}")
  execute_process(COMMAND "${CHECKER}" "${bumped_dir}" RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "the branches_retired + 1 copy is not a valid "
      "report: ${rc}")
  endif()
  execute_process(COMMAND "${DIFF}" "${report}" "${bumped_dir}/bumped.json"
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "report_diff on a branches_retired + 1 copy exited "
      "${rc}, not 1")
  endif()

  string(REGEX MATCH "\"schema\":\"[^\"]*\"" schema "${report_json}")
  string(REGEX MATCH "\"cycles\":[0-9]+" cycles "${report_json}")
  string(REGEX MATCH "\"totals\":{[^}]*}" totals "${report_json}")
  if(NOT schema OR NOT cycles OR NOT totals)
    message(FATAL_ERROR "${report} lacks schema/cycles/totals")
  endif()
  set(truncated "${REPORT_DIR}/truncated.json.bad")
  file(WRITE "${truncated}" "{${schema},${cycles},${totals}}")
  execute_process(COMMAND "${DIFF}" "${report}" "${truncated}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "report_diff on a truncated report exited ${rc}, not 1")
  endif()
endif()
