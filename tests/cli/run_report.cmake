# Run-report check for inltc (invoked by ctest via `cmake -P`): run
# inltc with --report-json and check the report it writes. The report
# puts one top-level member per line in a fixed order, so the checks
# are line matches and need no JSON parser.
#
# Variables (passed with -D):
#   INLTC        path to the inltc binary
#   ARGS         ;-separated argument list for inltc (without the
#                --report-json flag, which this script appends)
#   REPORT       where to write the report
#   EXPECT_RC    required exit code (and the report's exit_code)
#   EXPECT       optional ;-separated regexes; each must match the
#                report text (use [^\n]* to stay within one member)
#   DIAG_GOLDEN  optional file whose content must equal the report's
#                diagnostics member byte for byte
#   WRITES       optional file the run must also write (removed first)
#
# Every report is also checked for its layout: "{", then one line per
# member — command, exit_code, engine, stats, then spans, profile and
# result when present, and diagnostics last — then "}".
foreach(v INLTC ARGS REPORT EXPECT_RC)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "run_report.cmake: missing -D${v}")
  endif()
endforeach()

file(REMOVE ${REPORT})
if(WRITES)
  file(REMOVE ${WRITES})
endif()
execute_process(
  COMMAND ${INLTC} ${ARGS} --report-json ${REPORT}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL ${EXPECT_RC})
  message(FATAL_ERROR
    "inltc ${ARGS}: exit ${rc}, expected ${EXPECT_RC}\nstderr:\n${err}")
endif()
if(NOT EXISTS ${REPORT})
  message(FATAL_ERROR "inltc ${ARGS}: no report at ${REPORT}\nstderr:\n${err}")
endif()
if(WRITES AND NOT EXISTS ${WRITES})
  message(FATAL_ERROR "inltc ${ARGS}: did not write ${WRITES}\nstderr:\n${err}")
endif()
file(READ ${REPORT} report)

# Layout: member names in the fixed order, one member per line.
string(REGEX MATCHALL "\n  \"[a-z_]+\":" heads "${report}")
set(names "")
foreach(h IN LISTS heads)
  string(REGEX REPLACE "^\n  \"([a-z_]+)\":$" "\\1" name "${h}")
  string(APPEND names "${name},")
endforeach()
set(order "^command,exit_code,engine,stats,(spans,)?(profile,)?(result,)?")
string(APPEND order "diagnostics,$")
if(NOT names MATCHES "${order}")
  message(FATAL_ERROR "report members out of order: ${names}\n${report}")
endif()
string(REGEX MATCHALL "\n" newlines "${report}")
list(LENGTH newlines lines)
list(LENGTH heads members)
math(EXPR want_lines "${members} + 2")
if(NOT report MATCHES "^{\n" OR NOT report MATCHES "\n}\n$"
   OR NOT lines EQUAL want_lines)
  message(FATAL_ERROR "report is not one member per line:\n${report}")
endif()
if(NOT report MATCHES "\n  \"exit_code\":${EXPECT_RC},\n")
  message(FATAL_ERROR "report exit_code is not ${EXPECT_RC}:\n${report}")
endif()

foreach(re IN LISTS EXPECT)
  if(NOT report MATCHES "${re}")
    message(FATAL_ERROR "report does not match '${re}':\n${report}")
  endif()
endforeach()

if(DIAG_GOLDEN)
  file(READ ${DIAG_GOLDEN} want)
  string(REGEX REPLACE "\n$" "" want "${want}")
  string(REGEX MATCH "\n  \"diagnostics\":([^\n]*)\n" line "${report}")
  if(NOT CMAKE_MATCH_1 STREQUAL want)
    message(FATAL_ERROR
      "report diagnostics differ from ${DIAG_GOLDEN}\n"
      "--- got ---\n${CMAKE_MATCH_1}\n--- want ---\n${want}")
  endif()
endif()
