# The registry_sweep ctest fixture: one cold sweep of the default
# manifest (Figures 3-5) into DIR/cold against a fresh result store in
# DIR/store, with its metrics snapshot. Every registry check reads this
# sweep instead of simulating the manifest again (registry_gates,
# figures_smoke, sweep_smoke, cache_smoke and StaticPerfRegistry.*; see
# tools/CMakeLists.txt).
# The whole of DIR is deleted first: result keys do not hash the
# simulator's code, so a store kept across builds would hide a model
# change. Run from the source root, so that smt_sweep claims the jobs
# longest first by bench/history. Invoked by ctest as:
#   cmake -DSWEEP=... -DDIR=... -P registry_sweep.cmake
file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${SWEEP}" --quiet --out "${DIR}/cold"
  --cache "${DIR}/store" --metrics "${DIR}/cold/metrics.json"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "the default-manifest sweep failed: ${rc}")
endif()
