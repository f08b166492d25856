# Golden-output runner for inltc (invoked by ctest via `cmake -P`).
#
# Variables (passed with -D):
#   INLTC      path to the inltc binary
#   ARGS       ;-separated argument list for inltc
#   GOLDEN     path to the expected-stdout file
#   EXPECT_RC  required exit code
#   ERR_REGEX  optional regex stderr must match
#
# stderr is not compared byte for byte: it carries matrices, verify
# summaries and --stats dumps whose timing values are not stable. It
# must never report a failed internal check: bad input is a diagnostic.
foreach(v INLTC ARGS GOLDEN EXPECT_RC)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "run_golden.cmake: missing -D${v}")
  endif()
endforeach()

execute_process(
  COMMAND ${INLTC} ${ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)

if(NOT rc EQUAL ${EXPECT_RC})
  message(FATAL_ERROR
    "inltc ${ARGS}: exit ${rc}, expected ${EXPECT_RC}\nstderr:\n${err}")
endif()

if(err MATCHES "internal check failed")
  message(FATAL_ERROR "inltc ${ARGS}: internal check on stderr:\n${err}")
endif()
if(DEFINED ERR_REGEX AND NOT err MATCHES "${ERR_REGEX}")
  message(FATAL_ERROR
    "inltc ${ARGS}: stderr does not match '${ERR_REGEX}'\nstderr:\n${err}")
endif()

file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR
    "inltc ${ARGS}: stdout differs from ${GOLDEN}\n"
    "--- got ---\n${out}\n--- want ---\n${want}")
endif()
