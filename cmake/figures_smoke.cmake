# Figure renderer smoke: sweep the three n = 64 LU jobs and render Figure
# 4 from the index; its rows must equal the golden Figure 4's n = 64 rows
# (compared with runs of spaces squeezed: column widths depend on which
# rows a table holds). Sweep the sync manifest and render the sync
# ablation: it must equal its golden file byte for byte. Then an index
# missing one of the LU jobs, an index where one failed, and two indexes
# sharing one must each be refused with exit 1 naming the job. Invoked
# by ctest (see tools/CMakeLists.txt) as:
#   cmake -DSWEEP=... -DFIGURES=... -DGOLDEN_DIR=... -DOUT_DIR=...
#     -P figures_smoke.cmake
file(REMOVE_RECURSE "${OUT_DIR}")

# sweep(DIR JOBS...): a cached sweep of JOBS into OUT_DIR/DIR.
function(sweep dir)
  execute_process(COMMAND "${SWEEP}" --quiet --jobs 3
    --out "${OUT_DIR}/${dir}" --cache "${OUT_DIR}/store" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep ${ARGN} failed: ${rc}")
  endif()
endfunction()
sweep(all lu.serial.n64 lu.tlp-coarse.n64 lu.tlp-pfetch.n64)

execute_process(COMMAND "${FIGURES}" --index "${OUT_DIR}/all/sweep_index.json"
  --figure 4 RESULT_VARIABLE rc OUTPUT_VARIABLE rendered)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "smt_figures failed: ${rc}")
endif()
file(READ "${GOLDEN_DIR}/figures.txt" golden)
string(REGEX MATCH "=== Figure 4[^\n]*\n[^=]*" golden "${golden}")
foreach(text golden rendered)
  string(REGEX REPLACE " +" " " ${text} "${${text}}")
  string(REGEX MATCHALL "\n[a-z+-]+ 64 [^\n]*" ${text} "${${text}}")
endforeach()
list(LENGTH golden rows)
if(NOT rows EQUAL 3 OR NOT rendered STREQUAL golden)
  message(FATAL_ERROR "Figure 4's n = 64 rows differ from figures.txt:\n"
    "want:${golden}\ngot:${rendered}")
endif()

sweep(sync --manifest sync)
execute_process(COMMAND "${FIGURES}" --index "${OUT_DIR}/sync/sweep_index.json"
  --figure sync RESULT_VARIABLE rc OUTPUT_VARIABLE rendered)
file(READ "${GOLDEN_DIR}/sync.txt" golden)
if(NOT rc EQUAL 0 OR NOT rendered STREQUAL golden)
  message(FATAL_ERROR "the sync table (exit ${rc}) differs from sync.txt:\n"
    "want:${golden}\ngot:${rendered}")
endif()

# expect_refusal(JOB INDEX...): smt_figures over INDEXes must exit 1 and
# name JOB.
function(expect_refusal job)
  set(args "")
  foreach(dir IN LISTS ARGN)
    list(APPEND args --index "${OUT_DIR}/${dir}/sweep_index.json")
  endforeach()
  execute_process(COMMAND "${FIGURES}" ${args} --figure 4
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${job}" at)
  if(NOT rc EQUAL 1 OR at EQUAL -1)
    message(FATAL_ERROR "smt_figures over ${ARGN}: exit ${rc}, want 1 "
      "naming ${job}:\n${err}")
  endif()
endfunction()

sweep(partial lu.serial.n64 lu.tlp-coarse.n64)
expect_refusal(lu.tlp-pfetch.n64 partial)

# The full index with lu.tlp-coarse.n64 recorded as a deadlock.
file(READ "${OUT_DIR}/all/sweep_index.json" index)
string(REPLACE "\"lu.tlp-coarse.n64\",\"outcome\":\"ok\""
  "\"lu.tlp-coarse.n64\",\"outcome\":\"deadlock\"" failed "${index}")
string(REPLACE "\"failed\":0" "\"failed\":1" failed "${failed}")
file(WRITE "${OUT_DIR}/failed/sweep_index.json" "${failed}")
file(COPY "${OUT_DIR}/all/reports" DESTINATION "${OUT_DIR}/failed")
expect_refusal(lu.tlp-coarse.n64 failed)

expect_refusal(lu.serial.n64 all partial)
