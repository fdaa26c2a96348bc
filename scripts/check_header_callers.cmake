# Fails when a header under src/ is #included by no file in src/, bench/,
# examples/ or linbench/ other than its own .cc: a front door that no
# program calls (tests do not count as callers).
#
#   cmake -DROOT=<repo root> -P scripts/check_header_callers.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT ROOT)
  message(FATAL_ERROR "pass -DROOT=<repo root>")
endif()

file(GLOB_RECURSE headers RELATIVE "${ROOT}/src" "${ROOT}/src/*.h")

set(included "")
foreach(dir src bench examples linbench)
  file(GLOB_RECURSE files "${ROOT}/${dir}/*.h" "${ROOT}/${dir}/*.cc"
       "${ROOT}/${dir}/*.cpp" "${ROOT}/${dir}/*.inc")
  foreach(f IN LISTS files)
    file(STRINGS "${f}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
    foreach(line IN LISTS lines)
      string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\".*" "\\1"
                           inc "${line}")
      string(REGEX REPLACE "\\.h$" ".cc" own_cc "${ROOT}/src/${inc}")
      if(NOT f STREQUAL own_cc)
        list(APPEND included "${inc}")
      endif()
    endforeach()
  endforeach()
endforeach()

set(orphans "")
foreach(h IN LISTS headers)
  if(NOT h IN_LIST included)
    list(APPEND orphans "src/${h}")
  endif()
endforeach()

list(LENGTH headers count)
if(orphans)
  string(REPLACE ";" "\n  " listing "${orphans}")
  message(FATAL_ERROR "headers no program includes (delete them, or call "
                      "them from src/, bench/, examples/ or linbench/):\n"
                      "  ${listing}")
endif()
message(STATUS "all ${count} headers under src/ have a caller")
