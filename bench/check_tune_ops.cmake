# Fails unless the set of "op" values in a fresh bench_tune run's JSON equals
# the set in the checked-in artifact, so a stale results/BENCH_tune.json
# (an op added, renamed or removed without regenerating it) cannot pass.
#
#   cmake -DRUN=BENCH_tune_smoke.json -DARTIFACT=results/BENCH_tune.json \
#         -P check_tune_ops.cmake
#
# Regex rather than string(JSON): that needs CMake 3.19, the project's
# minimum is 3.16.
function(op_set path out)
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "missing ${path}")
  endif()
  file(READ "${path}" text)
  string(REGEX MATCHALL "\"op\": *\"[^\"]*\"" matches "${text}")
  set(ops "")
  foreach(m IN LISTS matches)
    string(REGEX REPLACE "\"op\": *\"([^\"]*)\"" "\\1" op "${m}")
    list(APPEND ops "${op}")
  endforeach()
  if(NOT ops)
    message(FATAL_ERROR "no \"op\" records in ${path}")
  endif()
  list(REMOVE_DUPLICATES ops)
  list(SORT ops)
  set(${out} "${ops}" PARENT_SCOPE)
endfunction()

op_set("${RUN}" run_ops)
op_set("${ARTIFACT}" artifact_ops)
if(NOT run_ops STREQUAL artifact_ops)
  message(FATAL_ERROR "bench_tune ops differ from the checked-in artifact\n"
                      "  run:      ${run_ops}\n"
                      "  artifact: ${artifact_ops}\n"
                      "Regenerate ${ARTIFACT} with a full bench_tune run.")
endif()
message(STATUS "bench_tune ops match ${ARTIFACT}: ${run_ops}")
