# smt_explain smoke driver: inject a deadlock through the sweep, then
# require that the diagnoser renders its core dump into an explanation
# naming the actual failure. Invoked by ctest (see tools/CMakeLists.txt):
#   cmake -DSWEEP=... -DEXPLAIN=... -DOUT_DIR=... -P explain_smoke.cmake
file(REMOVE_RECURSE "${OUT_DIR}")

# A deliberately deadlocking job: cpu0 halts awaiting an IPI that is
# never sent. The sweep exits nonzero but leaves the dump behind.
execute_process(COMMAND "${SWEEP}" --quiet --out "${OUT_DIR}"
  selftest.deadlock RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "deadlock sweep unexpectedly exited 0")
endif()

set(dump "${OUT_DIR}/dumps/selftest.deadlock.dump.json")
if(NOT EXISTS "${dump}")
  message(FATAL_ERROR "sweep left no core dump at ${dump}")
endif()

# The dump records the death cycle; the diagnosis must name it.
file(READ "${dump}" dump_json)
string(REGEX MATCH "\"cycle\":([0-9]+)" _ "${dump_json}")
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "dump carries no death cycle")
endif()
set(death_cycle "${CMAKE_MATCH_1}")

execute_process(COMMAND "${EXPLAIN}" "${dump}"
  OUTPUT_VARIABLE diagnosis RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "smt_explain failed on a valid dump: ${rc}")
endif()

foreach(needle
    "outcome: deadlock at cycle ${death_cycle}"
    "awaiting IPI"
    "diagnosis:"
    "wake-up")
  string(FIND "${diagnosis}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "diagnosis lacks \"${needle}\":\n${diagnosis}")
  endif()
endforeach()

# Exit-code contract: no arguments is a usage error (2); a run report is
# not a core dump (1); nor is a dump whose cpu0 entry lost its mode (1).
execute_process(COMMAND "${EXPLAIN}" RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "smt_explain without arguments exited ${rc}, not 2")
endif()
execute_process(COMMAND "${EXPLAIN}"
  "${OUT_DIR}/reports/selftest.deadlock.json"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "smt_explain on a non-dump exited ${rc}, not 1")
endif()
string(REGEX REPLACE "\"cpu\":0,\"mode\":\"[^\"]*\"," "\"cpu\":0,"
  modeless "${dump_json}")
if(modeless STREQUAL dump_json)
  message(FATAL_ERROR "dump carries no cpus[0].mode to remove")
endif()
file(WRITE "${OUT_DIR}/modeless.dump.json" "${modeless}")
execute_process(COMMAND "${EXPLAIN}" "${OUT_DIR}/modeless.dump.json"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "smt_explain on a dump without cpu0 mode exited ${rc}, not 1")
endif()
