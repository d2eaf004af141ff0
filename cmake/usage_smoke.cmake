# Usage errors fail loudly before any simulation, with exit 2 and the
# offending option named on stderr:
#   * every numeric value must be a whole decimal number in its option's
#     range, and a manifest one the registry defines (each bad form rides
#     with --list, so a parser that wrongly accepted it would exit 0
#     instead of simulating);
#   * a --pipeview= window must be BEGIN:END or END with END > BEGIN (no
#     artifact may land before the refusal);
#   * the removed --resume and --cancel-after are unknown options (an
#     interrupted sweep finishes through --cache), as is the removed
#     --cycle-budget (every job runs within its definition's budget),
#     refused before any artifact lands.
# Invoked by ctest (see tools/CMakeLists.txt) as:
#   cmake -DSWEEP=... -DOUT_DIR=... -P usage_smoke.cmake

# expect_usage(NAME COMMAND...): COMMAND must exit 2 with stderr
# matching the regex NAME.
function(expect_usage name)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${name}")
    message(FATAL_ERROR "${ARGN}: exit ${rc}, want 2 naming ${name}:\n${err}")
  endif()
endfunction()

foreach(bad "--jobs;abc" "--jobs;0" "--jobs;-1" "--jobs;4x" "--jobs;5000"
    "--jobs;18446744073709551616" "--timeout-ms;-5" "--timeout-ms;abc" "--timeout-ms; 5"
    "--timeout-ms;99999999999"
    "--cache-verify=0" "--cache-verify=x" "--manifest;nosuch")
  list(GET bad 0 option)
  string(REGEX REPLACE "=.*" "" option "${option}")
  string(REPLACE "--" "" name "${option}")
  expect_usage(${name} "${SWEEP}" ${bad} --cache store --list)
endforeach()

# Well-formed values pass, and --list names each job's manifest.
execute_process(COMMAND "${SWEEP}" --jobs 2 --timeout-ms 0 --manifest ablation
  --list
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(CONCAT want "\nmm.serial.n64 +default\n.*\ncg.serial.i4 +ablation\n"
  ".*\nmm.serial.n256 +full\n.*\nselftest.deadlock +selftest\n")
if(NOT rc EQUAL 0 OR NOT "\n${out}" MATCHES "${want}")
  message(FATAL_ERROR "well-formed options: exit ${rc}\n${out}${err}")
endif()

foreach(window "20000:5000" "5000:5000" "abc" "5000:" ":20000" "0" "-1"
               "1:2:3" "10k")
  file(REMOVE_RECURSE "${OUT_DIR}")
  file(MAKE_DIRECTORY "${OUT_DIR}")
  expect_usage(pipeview "${SWEEP}" "--pipeview=${window}" --out "${OUT_DIR}"
    sync.none)
  file(GLOB_RECURSE written "${OUT_DIR}/*")
  if(written)
    message(FATAL_ERROR "window \"${window}\" simulated first: ${written}")
  endif()
endforeach()

foreach(removed "--resume" "--cancel-after;2" "--cycle-budget;1000")
  file(REMOVE_RECURSE "${OUT_DIR}")
  file(MAKE_DIRECTORY "${OUT_DIR}")
  list(GET removed 0 option)
  expect_usage("unknown option +option=${option}" "${SWEEP}" ${removed}
    --out "${OUT_DIR}" sync.none)
  file(GLOB_RECURSE written "${OUT_DIR}/*")
  if(written)
    message(FATAL_ERROR "removed ${option} simulated first: ${written}")
  endif()
endforeach()
