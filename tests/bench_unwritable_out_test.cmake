# A bench whose report cannot be written must fail: this runs one with
# PERFISO_BENCH_OUT naming a directory that does not exist and expects exit
# status 1 plus the "bench: cannot write" diagnostic for its BENCH_*.json.
#
#   cmake -DBENCH=<bench binary> -DOUT_DIR=<missing directory> \
#         -P tests/bench_unwritable_out_test.cmake
if(NOT BENCH OR NOT OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH=<binary> -DOUT_DIR=<missing dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
if(EXISTS "${OUT_DIR}")
  message(FATAL_ERROR "${OUT_DIR} exists; the test needs a missing directory")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env PERFISO_BENCH_SCALE=0.05 PERFISO_BENCH_OUT=${OUT_DIR} ${BENCH}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1 from ${BENCH}, got '${status}'\n${stderr}")
endif()
if(NOT stderr MATCHES "bench: cannot write ${OUT_DIR}/BENCH_")
  message(FATAL_ERROR "missing 'bench: cannot write' diagnostic:\n${stderr}")
endif()
