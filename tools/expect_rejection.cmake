# Passes iff `pullmon_cli <ARGS>` exits with status 2 (a rejected
# command line) and its stderr matches the regular expression EXPECT.
#
#   cmake -DCLI=<path to pullmon_cli> "-DARGS=run --reps=0"
#         "-DEXPECT=--reps" -P tools/expect_rejection.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "exit ${status}, expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
