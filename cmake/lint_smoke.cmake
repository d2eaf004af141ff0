# Lint smoke driver: the guest-program verifier's static gate.
# Invoked by ctest (see tools/CMakeLists.txt) as:
#   cmake -DLINT=... -P lint_smoke.cmake
#
# Four runs:
#   1. smt_lint over the full experiment registry — every emitted program
#      of every kernel mode must come back with zero errors and zero
#      warnings (the summary line is matched exactly);
#   2. smt_lint --format=json — the structured report must carry the
#      versioned schema tag and clean totals;
#   3. smt_lint --selftest — one deliberately broken program per lint
#      rule, each of which the lint must catch (exit 0 = all caught);
#   4. smt_lint with an unknown experiment name beside a known one —
#      usage error (exit 2) naming each unknown experiment.

execute_process(COMMAND "${LINT}" RESULT_VARIABLE rc OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "smt_lint found problems in registry programs:\n${out}")
endif()
string(FIND "${out}" "0 error(s), 0 warning(s)" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "smt_lint summary missing/unexpected:\n${out}")
endif()

execute_process(COMMAND "${LINT}" --format=json RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "smt_lint --format=json failed:\n${out}${err}")
endif()
foreach(needle "\"schema\":\"smt-lint-report/1\"" "\"errors\":0"
    "\"warnings\":0")
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "smt_lint JSON report lacks '${needle}':\n${out}")
  endif()
endforeach()

execute_process(COMMAND "${LINT}" --selftest RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "smt_lint --selftest missed a seeded violation:\n${out}")
endif()
foreach(rule uninit-read missing-pause lock-pairing sync-region-write
    out-of-extent range-out-of-extent unreachable fall-off-end
    barrier-mismatch lock-order)
  string(FIND "${out}" "caught ${rule}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "selftest output lacks 'caught ${rule}':\n${out}")
  endif()
endforeach()

execute_process(COMMAND "${LINT}" mm.serial.n64 no.such.experiment
    also.missing RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "smt_lint accepted unknown experiment names (exit ${rc}):\n${out}")
endif()
foreach(name no.such.experiment also.missing)
  string(FIND "${out}" "${name}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "smt_lint did not name unknown '${name}':\n${out}")
  endif()
endforeach()
