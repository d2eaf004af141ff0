# The default manifest's gates, on the registry_sweep fixture's cold
# sweep in DIR (see registry_sweep.cmake):
#   1. every job's counters equal its bench/history baseline exactly
#      (smt_history check);
#   2. the reports, metrics and index validate (check_reports);
#   3. Figures 3-5 rendered from the index equal tests/golden/figures.txt
#      byte for byte;
#   4. a warm sweep against the fixture's store hits on every job, each
#      of its reports equals the cold one byte for byte, its index equals
#      the cold index apart from wall_ms and cached, and its artifacts
#      validate.
# Step 4 is half of the end-to-end proof of the determinism contract the
# result cache rests on: a key collision, a nondeterministic kernel or
# host state leaking into reports would surface there. The other half,
# a --cache-verify=3 audit that re-simulates three hits against the
# fixture's store, runs in scripts/ci.sh from the source root, so that it
# re-simulates the three longest jobs. Nothing here simulates. Invoked
# by ctest (see tools/CMakeLists.txt) as:
#   cmake -DSWEEP=... -DCHECKER=... -DHISTORY=... -DFIGURES=...
#     -DSOURCE_DIR=... -DDIR=... -P registry_gates.cmake
file(REMOVE_RECURSE "${DIR}/warm")

# run(ARGS...): runs the command ARGS and fails unless it exits 0.
function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "${command}: exit ${rc}")
  endif()
endfunction()

# check_sweep(RUN): check_reports over DIR/RUN's reports, metrics and
# index.
function(check_sweep run)
  run("${CHECKER}" "${DIR}/${run}/reports"
    --metrics "${DIR}/${run}/metrics.json"
    --index "${DIR}/${run}/sweep_index.json")
endfunction()

run("${HISTORY}" check --sweep "${DIR}/cold"
  --history "${SOURCE_DIR}/bench/history")
check_sweep(cold)

execute_process(COMMAND "${FIGURES}" --index "${DIR}/cold/sweep_index.json"
  --figure 3 --figure 4 --figure 5 RESULT_VARIABLE rc
  OUTPUT_VARIABLE rendered)
file(READ "${SOURCE_DIR}/tests/golden/figures.txt" golden)
if(NOT rc EQUAL 0 OR NOT rendered STREQUAL golden)
  message(FATAL_ERROR "Figures 3-5 (exit ${rc}) differ from figures.txt:\n"
    "want:\n${golden}\ngot:\n${rendered}")
endif()

run("${SWEEP}" --quiet --out "${DIR}/warm" --cache "${DIR}/store"
  --metrics "${DIR}/warm/metrics.json")
file(READ "${DIR}/warm/sweep_index.json" warm_index)
string(FIND "${warm_index}" "\"cached\":false" missed)
if(NOT missed EQUAL -1)
  message(FATAL_ERROR "the warm registry sweep missed the cache")
endif()
file(GLOB cold_reports "${DIR}/cold/reports/*.json")
foreach(report IN LISTS cold_reports)
  get_filename_component(fname "${report}" NAME)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${report}" "${DIR}/warm/reports/${fname}" RESULT_VARIABLE cmp)
  if(NOT cmp EQUAL 0)
    message(FATAL_ERROR "cached report ${fname} differs from the cold one")
  endif()
endforeach()
file(READ "${DIR}/cold/sweep_index.json" cold_index)
foreach(which cold warm)
  string(REGEX REPLACE "\"wall_ms\":[0-9.e+-]+" "\"wall_ms\":0"
    ${which}_index "${${which}_index}")
  string(REGEX REPLACE "\"cached\":(true|false)" "\"cached\":x"
    ${which}_index "${${which}_index}")
endforeach()
if(NOT cold_index STREQUAL warm_index)
  message(FATAL_ERROR "the warm sweep index differs from the cold one "
    "beyond wall_ms and cached")
endif()
check_sweep(warm)

