# Lint smoke driver: the guest-program verifier's static gate.
# Invoked by ctest (see tools/CMakeLists.txt) as:
#   cmake -DLINT=... -DSWEEP=... -DCHECKER=... -DOUT_DIR=... \
#     -P lint_smoke.cmake
#
# Five runs:
#   1. smt_lint over the full experiment registry — every emitted program
#      of every kernel mode must come back with zero errors and zero
#      warnings (the summary line is matched exactly);
#   2. smt_lint --format=json — the structured report must carry the
#      versioned schema tag and clean totals, and pass
#      check_reports --lint-report;
#   3. smt_lint --selftest — one deliberately broken program per lint
#      rule, each of which the lint must catch (exit 0 = all caught);
#   4. smt_lint with an unknown experiment name beside a known one —
#      usage error (exit 2) naming each unknown experiment;
#   5. smt_sweep --lint, the sweep's pre-run gate, with selftest.lint
#      broken under SMT_SELFTEST_LINT_BREAK=1 beside a healthy job — the
#      broken job must be indexed as lint_failed without running (exit
#      1), and the reports, metrics and index must validate.

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

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
file(WRITE "${OUT_DIR}/lint.json" "${out}")
execute_process(COMMAND "${CHECKER}" --lint-report "${OUT_DIR}/lint.json"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "smt_lint JSON report failed validation: ${rc}")
endif()

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

execute_process(COMMAND ${CMAKE_COMMAND} -E env SMT_SELFTEST_LINT_BREAK=1
    "${SWEEP}" --quiet --lint --out "${OUT_DIR}/sweep"
    --metrics "${OUT_DIR}/sweep/metrics.json" selftest.lint sync.none
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "smt_sweep --lint: exit ${rc} with a seeded lint violation, want 1:\n${err}")
endif()
file(READ "${OUT_DIR}/sweep/sweep_index.json" index)
foreach(needle
    "\"name\":\"selftest.lint\",\"outcome\":\"lint_failed\""
    "\"name\":\"sync.none\",\"outcome\":\"ok\"")
  string(FIND "${index}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "lint-gated sweep index lacks ${needle}:\n${index}")
  endif()
endforeach()
execute_process(COMMAND "${CHECKER}" "${OUT_DIR}/sweep/reports"
  --metrics "${OUT_DIR}/sweep/metrics.json"
  --index "${OUT_DIR}/sweep/sweep_index.json" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lint-gated sweep artifacts failed validation: ${rc}")
endif()
