# Runs BIN with the single argument ARG and passes only when it exits 2 with
# EXPECT on stderr: a malformed gate value must be a usage error, never a run
# that silently weakens its gate.
#   cmake -DBIN=<binary> -DARG=<flag=value> -DEXPECT=<regex> -P usage_error_test.cmake
execute_process(COMMAND "${BIN}" "${ARG}" RESULT_VARIABLE code ERROR_VARIABLE err
                OUTPUT_QUIET)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "${BIN} ${ARG}: expected exit 2, got '${code}'\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARG}: expected '${EXPECT}' on stderr, got:\n${err}")
endif()
