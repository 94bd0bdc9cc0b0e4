# Build file of the benchmark program.  run.py configures the repository root
# with -DCMAKE_PROJECT_fatomic_INCLUDE=<this file>, which CMake includes right
# after the root's project(fatomic) call, so the program is compiled and
# linked exactly like the repository's own binaries: same options, flags and
# default build type.  The call is deferred to the end of the root
# CMakeLists.txt, after every library target and directory-wide flag exists.
function(perfbench_add_program)
  add_executable(perfbench EXCLUDE_FROM_ALL
                 ${CMAKE_CURRENT_FUNCTION_LIST_DIR}/perfbench.cpp)
  target_link_libraries(perfbench PRIVATE fatomic subjects_apps subjects_net)
  # The root CMakeLists.txt defaults an empty build type to RelWithDebInfo;
  # the program stamps the effective one into every run's output.
  target_compile_definitions(perfbench
      PRIVATE PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
endfunction()
cmake_language(DEFER CALL perfbench_add_program)
