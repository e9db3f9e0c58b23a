# Fails when a discovered gtest name is not build-stable. gtest prints a
# parameter it cannot name as raw bytes ("16-byte object <01-00 ...>"),
# uninitialised struct padding included, so such names change from build
# to build and no run can be compared with another by name. A
# parameterized suite passes a name generator instead.
#
# Scans the *_tests.cmake files gtest_discover_tests wrote for the targets
# that CTestTestfile.cmake includes (leftovers of deleted targets are
# ignored).
#
#   cmake -DTESTS_DIR=<build>/tests -P test_names_guard.cmake

if(NOT TESTS_DIR)
  message(FATAL_ERROR "usage: cmake -DTESTS_DIR=<dir> -P test_names_guard.cmake")
endif()

file(STRINGS "${TESTS_DIR}/CTestTestfile.cmake" includes
     REGEX "_include\\.cmake\"\\)$")
set(scanned 0)
set(offenders "")
foreach(line IN LISTS includes)
  string(REGEX REPLACE "^include\\(\"(.*)_include\\.cmake\"\\)$"
         "\\1_tests.cmake" tests_file "${line}")
  if(NOT EXISTS "${tests_file}")
    continue()  # target not built; ctest reports it as *_NOT_BUILT
  endif()
  math(EXPR scanned "${scanned} + 1")
  file(STRINGS "${tests_file}" bad_lines REGEX "^add_test\\(.*-byte object <")
  foreach(bad IN LISTS bad_lines)
    string(REGEX REPLACE "^add_test\\(\\[=\\[([^]]*)\\]=\\].*" "\\1" name "${bad}")
    string(APPEND offenders "  ${name}\n")
  endforeach()
endforeach()

if(scanned EQUAL 0)
  message(FATAL_ERROR "no discovered test lists under ${TESTS_DIR}")
endif()
if(NOT offenders STREQUAL "")
  message(FATAL_ERROR
    "test names print a parameter as raw bytes (unstable across builds); "
    "give the suite a name generator:\n${offenders}")
endif()
message(STATUS "${scanned} discovered test lists, all names stable")
