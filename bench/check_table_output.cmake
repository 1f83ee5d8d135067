# Runs one table bench without its timing benchmarks and compares the
# table it prints with checked-in text, so a change to BAD's sweep or to
# level-1 pruning that moves a Table 3/5 figure fails the test suite.
# Run via:
#   cmake -DBENCH=<bench binary> -DEXPECTED=<file> -P check_table_output.cmake
if(NOT DEFINED BENCH OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "BENCH and EXPECTED must be defined")
endif()

execute_process(COMMAND ${BENCH} --benchmark_filter=^$
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}:\n${err}")
endif()
# Everything on stdout but the note naming the metrics file.
string(REGEX REPLACE "wrote [^\n]*\n" "" out "${out}")
file(READ ${EXPECTED} want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR "table output differs from ${EXPECTED}\n"
                      "--- expected ---\n${want}--- got ---\n${out}")
endif()
