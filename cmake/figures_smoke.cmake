# Figure renderer smoke: sweep the sync manifest and render the sync
# ablation: it must equal its golden file byte for byte. Then smt_figures
# must refuse, with exit 1 naming the job, three sets of indexes for
# Figure 4: the sync sweep's (no LU jobs), an edited copy of the
# registry_sweep fixture's index REGISTRY_SWEEP where one LU job failed,
# and the fixture's index together with a plain copy of it (every job in
# two indexes). Figures 3-5 rendered from the fixture are registry_gates'
# check. Invoked by ctest (see tools/CMakeLists.txt) as:
#   cmake -DSWEEP=... -DFIGURES=... -DGOLDEN_DIR=... -DREGISTRY_SWEEP=...
#     -DOUT_DIR=... -P figures_smoke.cmake
file(REMOVE_RECURSE "${OUT_DIR}")

execute_process(COMMAND "${SWEEP}" --quiet --jobs 3 --manifest sync
  --out "${OUT_DIR}/sync" RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep --manifest sync failed: ${rc}")
endif()
execute_process(COMMAND "${FIGURES}" --index "${OUT_DIR}/sync/sweep_index.json"
  --figure sync RESULT_VARIABLE rc OUTPUT_VARIABLE rendered)
file(READ "${GOLDEN_DIR}/sync.txt" golden)
if(NOT rc EQUAL 0 OR NOT rendered STREQUAL golden)
  message(FATAL_ERROR "the sync table (exit ${rc}) differs from sync.txt:\n"
    "want:${golden}\ngot:${rendered}")
endif()

# The copied indexes sit beside a copy of the fixture's reports, which
# their report paths name relative to the index.
set(edited "${OUT_DIR}/edited")
file(COPY "${REGISTRY_SWEEP}/reports" "${REGISTRY_SWEEP}/sweep_index.json"
  DESTINATION "${edited}")
file(READ "${REGISTRY_SWEEP}/sweep_index.json" index)

# expect_refusal(JOB INDEX...): smt_figures over INDEXes must exit 1 and
# name JOB.
function(expect_refusal job)
  set(args "")
  foreach(path IN LISTS ARGN)
    list(APPEND args --index "${path}")
  endforeach()
  execute_process(COMMAND "${FIGURES}" ${args} --figure 4
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${job}" at)
  if(NOT rc EQUAL 1 OR at EQUAL -1)
    message(FATAL_ERROR "smt_figures over ${ARGN}: exit ${rc}, want 1 "
      "naming ${job}:\n${err}")
  endif()
endfunction()

expect_refusal(lu.tlp-pfetch.n64 "${OUT_DIR}/sync/sweep_index.json")

# The fixture's index with lu.tlp-coarse.n64 recorded as a deadlock.
string(REPLACE "\"lu.tlp-coarse.n64\",\"outcome\":\"ok\""
  "\"lu.tlp-coarse.n64\",\"outcome\":\"deadlock\"" failed "${index}")
string(REPLACE "\"failed\":0" "\"failed\":1" failed "${failed}")
file(WRITE "${edited}/failed.json" "${failed}")
expect_refusal(lu.tlp-coarse.n64 "${edited}/failed.json")

expect_refusal(lu.serial.n64 "${REGISTRY_SWEEP}/sweep_index.json"
  "${edited}/sweep_index.json")
