# Thread-count invariance check for inltc (invoked by ctest via
# `cmake -P`): run inltc with --threads 1 and with --threads THREADS
# and require byte-identical stdout and the same exit code.
#
# Variables (passed with -D):
#   INLTC    path to the inltc binary
#   ARGS     ;-separated argument list for inltc (without --threads)
#   THREADS  the session thread count to compare against one thread
foreach(v INLTC ARGS THREADS)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "run_thread_invariance.cmake: missing -D${v}")
  endif()
endforeach()

foreach(t 1 ${THREADS})
  execute_process(
    COMMAND ${INLTC} ${ARGS} --threads ${t}
    OUTPUT_VARIABLE out_${t}
    ERROR_VARIABLE err_${t}
    RESULT_VARIABLE rc_${t}
  )
endforeach()
if(NOT rc_1 EQUAL rc_${THREADS})
  message(FATAL_ERROR "inltc ${ARGS}: exit ${rc_1} at 1 thread, "
    "${rc_${THREADS}} at ${THREADS}\nstderr:\n${err_${THREADS}}")
endif()
if(NOT out_1 STREQUAL out_${THREADS})
  message(FATAL_ERROR
    "inltc ${ARGS}: stdout at ${THREADS} threads differs from 1 thread")
endif()
