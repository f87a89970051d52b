# Runs TOOL with an unknown flag and fails unless it exits 2 with stderr
# starting "usage: NAME" (the usage line its flag table builds).
#
#   cmake -DTOOL=<binary> -DNAME=<program name> -P cli_usage.cmake
execute_process(COMMAND "${TOOL}" --no-such-flag
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "${NAME} --no-such-flag exited ${code}, expected 2\n${err}")
endif()
string(FIND "${err}" "usage: ${NAME}" at)
if(NOT at EQUAL 0)
  message(FATAL_ERROR "${NAME} stderr does not start with 'usage: ${NAME}':\n${err}")
endif()
