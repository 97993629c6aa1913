# Runs the bench ${BENCH} with --bench-out naming the missing directory
# ${OUT_DIR}; wants exit 2 and no "wrote" line. Invoked by ctest as
#   cmake -DBENCH=<binary> -DOUT_DIR=<dir> -P bench_out_test.cmake
if(EXISTS "${OUT_DIR}")
  message(FATAL_ERROR "${OUT_DIR} exists; the test needs a missing one")
endif()
execute_process(COMMAND "${BENCH}" --bench-out "${OUT_DIR}"
                RESULT_VARIABLE Code OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Code EQUAL 2)
  message(FATAL_ERROR "exit ${Code}, want 2\n${Out}${Err}")
endif()
if(Out MATCHES "wrote")
  message(FATAL_ERROR "claimed a file in a missing directory:\n${Out}")
endif()
