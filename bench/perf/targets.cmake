# Adds the sim_perf benchmark to the top-level project without
# editing it: bench/perf/run.sh passes this file as CMAKE_PROJECT_INCLUDE,
# which CMake includes at the end of project() — before the top-level
# CMakeLists sets CMAKE_CXX_STANDARD and its warning flags, and before src/
# defines the libraries linked below (target names resolve at generate time).
add_executable(sim_perf
  ${CMAKE_CURRENT_LIST_DIR}/sim_perf.cc
  ${CMAKE_CURRENT_LIST_DIR}/perf_bench.cc
  ${CMAKE_CURRENT_LIST_DIR}/perf_metrics.cc
  ${CMAKE_CURRENT_LIST_DIR}/perf_probe.cc
  ${CMAKE_CURRENT_LIST_DIR}/perf_trace.cc
  ${CMAKE_CURRENT_LIST_DIR}/perf_workloads.cc
)
# The host-speed probes must not speed up with the code they normalize:
# source options come last on the command line, so -O2 wins over any
# optimization level the project's flags set.
set_source_files_properties(${CMAKE_CURRENT_LIST_DIR}/perf_probe.cc
  PROPERTIES COMPILE_OPTIONS -O2)
target_compile_features(sim_perf PRIVATE cxx_std_20)
set_target_properties(sim_perf PROPERTIES CXX_EXTENSIONS OFF)
target_compile_options(sim_perf PRIVATE -Wall -Wextra)
target_link_libraries(sim_perf PRIVATE
  smt_host smt_kernels smt_core smt_analysis smt_mem smt_isa smt_common)
