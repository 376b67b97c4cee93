# Checks README.md's FSUP_* environment table against the code.
#
#   cmake -DROOT=<repo root> -P tests/knob_table_check.cmake
#
# Fails when a source file under src/, bench/ or tools/ calls getenv on an FSUP_* variable
# that has no row in the table, or when a row names a variable that no such file reads.

cmake_minimum_required(VERSION 3.16)

file(GLOB_RECURSE sources
  "${ROOT}/src/*.cpp" "${ROOT}/src/*.hpp" "${ROOT}/src/*.c" "${ROOT}/src/*.h"
  "${ROOT}/bench/*.cpp" "${ROOT}/bench/*.hpp"
  "${ROOT}/tools/*.cpp" "${ROOT}/tools/*.hpp")
set(read_vars "")
foreach(f IN LISTS sources)
  file(STRINGS "${f}" lines REGEX "getenv\\(\"FSUP_[A-Z0-9_]+\"")
  foreach(line IN LISTS lines)
    string(REGEX MATCHALL "getenv\\(\"FSUP_[A-Z0-9_]+\"" calls "${line}")
    foreach(call IN LISTS calls)
      string(REGEX REPLACE "getenv\\(\"(FSUP_[A-Z0-9_]+)\"" "\\1" var "${call}")
      list(APPEND read_vars "${var}")
    endforeach()
  endforeach()
endforeach()
list(REMOVE_DUPLICATES read_vars)

# A table row starts with "| `FSUP_"; its first cell may name several variables.
file(STRINGS "${ROOT}/README.md" rows REGEX "^\\| `FSUP_")
set(table_vars "")
foreach(row IN LISTS rows)
  string(REGEX MATCH "^\\|[^|]*" cell "${row}")
  string(REGEX MATCHALL "`FSUP_[A-Z0-9_]+" names "${cell}")
  foreach(name IN LISTS names)
    string(SUBSTRING "${name}" 1 -1 var)
    list(APPEND table_vars "${var}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES table_vars)

if(NOT read_vars OR NOT table_vars)
  message(FATAL_ERROR "knob table check found nothing to compare (ROOT=${ROOT})")
endif()

set(failed FALSE)
foreach(var IN LISTS read_vars)
  if(NOT var IN_LIST table_vars)
    message(SEND_ERROR "${var} is read by the code but has no row in README.md's table")
    set(failed TRUE)
  endif()
endforeach()
foreach(var IN LISTS table_vars)
  if(NOT var IN_LIST read_vars)
    message(SEND_ERROR "README.md's table names ${var}, which nothing reads")
    set(failed TRUE)
  endif()
endforeach()
list(LENGTH read_vars n)
if(NOT failed)
  message(STATUS "knob table check: ${n} FSUP_* variables, each read and documented")
endif()
