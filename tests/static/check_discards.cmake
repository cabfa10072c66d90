# Compile-fail check of the status types' class-level [[nodiscard]]:
#
#   cmake -DCXX=<compiler> -DSTD=<20> -DINCLUDE=<src dir> -DSOURCE=<file>
#         -P check_discards.cmake
#
# Compiles SOURCE with -fsyntax-only -Werror and fails unless the compiler
# rejects it with exactly 13 "ignoring returned value of type" errors (GCC's
# wording; Clang says "return value") and no other error.
cmake_minimum_required(VERSION 3.16)

foreach(var CXX STD INCLUDE SOURCE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: cmake -DCXX=<compiler> -DSTD=<n> "
                        "-DINCLUDE=<dir> -DSOURCE=<file> "
                        "-P check_discards.cmake")
  endif()
endforeach()

execute_process(
  COMMAND ${CXX} -std=c++${STD} -fsyntax-only -Werror -I ${INCLUDE} ${SOURCE}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)

string(REGEX MATCHALL "error: [^\n]*" errors "${out}")
list(LENGTH errors total)
string(REGEX MATCHALL "error: ignoring return(ed)? value of type [^\n]*"
       discards "${out}")
list(LENGTH discards found)

if(rc EQUAL 0 OR NOT found EQUAL 13 OR NOT total EQUAL 13)
  message("${out}")
  message(FATAL_ERROR "expected the compiler to reject ${SOURCE} with 13 "
                      "discarded-status errors and nothing else; got ${found} "
                      "of those among ${total} errors (exit ${rc})")
endif()
