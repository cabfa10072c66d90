# Adds xh_bench to a configure of the top-level project, as an
# `add_subdirectory(e2e)` line in bench/CMakeLists.txt would:
#
#   cmake -S . -B build-e2e \
#     -DCMAKE_PROJECT_xhybrid_INCLUDE=bench/e2e/attach.cmake
#   cmake --build build-e2e -j --target xh_bench
#
# CMake includes this file at the end of the top-level project() call, before
# the library targets, the warning set and enable_testing() exist, so the
# include of this directory's CMakeLists.txt is deferred to the end of the
# top-level CMakeLists.txt (CMake creates no subdirectory there).
set(XH_BENCH_LISTS "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
cmake_language(DEFER CALL include "${XH_BENCH_LISTS}")
