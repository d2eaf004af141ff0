# check_reports exit-code contract: an artifact that cannot be read is an
# I/O error (exit 3), not a validation finding (exit 1). Each scan, and the
# --index and --lint-report files, gets a directory named like an
# artifact, which opens but cannot be read.
# Invoked by ctest (see tools/CMakeLists.txt) as:
#   cmake -DCHECKER=... -DOUT_DIR=... -P check_reports_exit_smoke.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(WRITE "${OUT_DIR}/garbage/bad.json" "{")
file(MAKE_DIRECTORY "${OUT_DIR}/reports/unreadable.json")
file(MAKE_DIRECTORY "${OUT_DIR}/traces/unreadable.trace.json")
file(MAKE_DIRECTORY "${OUT_DIR}/dumps/unreadable.json")
file(WRITE "${OUT_DIR}/metrics.json" "{}")

function(expect_rc want)
  execute_process(COMMAND "${CHECKER}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "check_reports ${ARGN}: exit ${rc}, want ${want}")
  endif()
endfunction()

expect_rc(1 "${OUT_DIR}/garbage")
expect_rc(3 "${OUT_DIR}/reports")
expect_rc(3 "${OUT_DIR}/garbage" "${OUT_DIR}/traces")
expect_rc(3 "${OUT_DIR}/garbage" --dumps "${OUT_DIR}/dumps")
expect_rc(3 "${OUT_DIR}/garbage" --metrics "${OUT_DIR}/metrics.json"
  --index "${OUT_DIR}/reports/unreadable.json")
expect_rc(3 --lint-report "${OUT_DIR}/reports/unreadable.json")
