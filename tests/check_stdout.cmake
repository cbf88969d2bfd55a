# Runs PROGRAM with ARGS and fails unless its stdout matches GOLDEN byte for
# byte.  The run's stdout is left in ACTUAL, so a failure can be inspected
# with `diff GOLDEN ACTUAL`.
#
#   cmake -DPROGRAM=exe "-DARGS=--flag value" -DGOLDEN=file -DACTUAL=file \
#         -P check_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${PROGRAM} ${ARGS} differs from ${GOLDEN}; "
                      "see diff ${GOLDEN} ${ACTUAL}")
endif()
