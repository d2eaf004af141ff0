# Smoke test: sweep the sync manifest (the cheapest, four jobs)
# with the instruments TELEMETRY, PROFILE and INTERFERENCE name attached
# (smt_sweep --telemetry, --profile, --interference), then validate the
# reports, metrics and index with check_reports. Each of --telemetry,
# --profile and --interference must give every report its section
# (timeseries, profile, interference), and --telemetry must also drop a
# Chrome trace per job in <out>/traces/, which check_reports validates
# too. When ANNOTATE is given, smt_annotate must also accept one report,
# and with --predict print one static advisor bound per CPU.
# When DIFF is given, report_diff must accept that report against itself
# and reject (exit 1) both a still-valid copy that retired one more
# branch and a copy truncated to its schema, cycles and totals, which is
# not a valid run report. Invoked by ctest (see tools/CMakeLists.txt) as:
#   cmake -DSWEEP=... -DCHECKER=... -DOUT_DIR=...
#     [-DTELEMETRY=1] [-DPROFILE=1] [-DINTERFERENCE=1]
#     [-DANNOTATE=...] [-DDIFF=...] -P report_smoke.cmake
include("${CMAKE_CURRENT_LIST_DIR}/bump_counter.cmake")

file(REMOVE_RECURSE "${OUT_DIR}")
set(REPORT_DIR "${OUT_DIR}/reports")
set(INSTRUMENTS "")
foreach(instrument TELEMETRY PROFILE INTERFERENCE)
  if(${instrument})
    string(TOLOWER "--${instrument}" option)
    list(APPEND INSTRUMENTS "${option}")
  endif()
endforeach()

execute_process(COMMAND "${SWEEP}" --quiet --jobs 2 --manifest sync
  --out "${OUT_DIR}" --metrics "${OUT_DIR}/metrics.json" ${INSTRUMENTS}
  RESULT_VARIABLE sweep_rc OUTPUT_QUIET)
if(NOT sweep_rc EQUAL 0)
  message(FATAL_ERROR "smt_sweep --manifest sync ${INSTRUMENTS} failed: "
    "${sweep_rc}")
endif()

file(GLOB reports "${REPORT_DIR}/*.json")
list(LENGTH reports n)
if(NOT n EQUAL 4)
  message(FATAL_ERROR "the sync sweep wrote ${n} reports, expected 4")
endif()
foreach(pair "--telemetry;timeseries" "--profile;profile"
    "--interference;interference")
  list(GET pair 0 option)
  list(GET pair 1 section)
  list(FIND INSTRUMENTS "${option}" wanted)
  foreach(report IN LISTS reports)
    file(READ "${report}" report_json)
    string(FIND "${report_json}" "\"${section}\":" at)
    if(wanted EQUAL -1 AND NOT at EQUAL -1)
      message(FATAL_ERROR "${report} has a ${section} section without "
        "${option}")
    elseif(NOT wanted EQUAL -1 AND at EQUAL -1)
      message(FATAL_ERROR "${report} lacks its ${section} section")
    endif()
  endforeach()
endforeach()

list(FIND INSTRUMENTS "--telemetry" traced)
if(NOT traced EQUAL -1)
  file(GLOB traces "${OUT_DIR}/traces/*.trace.json")
  list(LENGTH traces n)
  if(NOT n EQUAL 4)
    message(FATAL_ERROR "the traced sweep wrote ${n} Chrome traces, "
      "expected 4")
  endif()
  execute_process(COMMAND "${CHECKER}" "${REPORT_DIR}" "${OUT_DIR}/traces"
    --metrics "${OUT_DIR}/metrics.json" --index "${OUT_DIR}/sweep_index.json"
    RESULT_VARIABLE rc)
else()
  execute_process(COMMAND "${CHECKER}" "${REPORT_DIR}"
    --metrics "${OUT_DIR}/metrics.json" --index "${OUT_DIR}/sweep_index.json"
    RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "artifacts failed validation: ${rc}")
endif()

list(SORT reports)
list(GET reports 0 report)

if(ANNOTATE)
  execute_process(COMMAND "${ANNOTATE}" "${report}" --top 5
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "smt_annotate rejected ${report}: ${rc}")
  endif()
  # --predict adds the static advisor's bound under each CPU's port table.
  execute_process(COMMAND "${ANNOTATE}" "${report}" --predict
    RESULT_VARIABLE rc OUTPUT_VARIABLE annotated)
  string(REGEX MATCHALL "\n=== cpu[0-9]+ port occupancy ===" cpus
    "${annotated}")
  string(REGEX MATCHALL "\nstatic advisor: cpi >= [0-9]" bounds
    "${annotated}")
  list(LENGTH cpus ncpus)
  list(LENGTH bounds nbounds)
  if(NOT rc EQUAL 0 OR ncpus EQUAL 0 OR NOT nbounds EQUAL ncpus)
    message(FATAL_ERROR "smt_annotate --predict on ${report} (exit ${rc}) "
      "printed ${nbounds} static advisor lines for ${ncpus} CPUs:\n"
      "${annotated}")
  endif()
endif()

if(DIFF)
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
  set(bumped_dir "${OUT_DIR}/bumped")
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
  set(truncated "${OUT_DIR}/truncated.json.bad")
  file(WRITE "${truncated}" "{${schema},${cycles},${totals}}")
  execute_process(COMMAND "${DIFF}" "${report}" "${truncated}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "report_diff on a truncated report exited ${rc}, not 1")
  endif()
endif()
