# Paper tables (EXPERIMENTS.md): bench_table1's stdout and bench_table2's
# stdout must match the recorded goldens byte for byte, except
# bench_table2's measured time column, which is masked to "T.TTT". The
# goldens pin every Table 1 column, the Table 2 precision averages and the
# solver telemetry rows. Invoked by ctest with -DTABLE1=<bench_table1>
# -DTABLE2=<bench_table2> -DGOLDEN=<tests/fixtures/paper_tables>
# -DWORK=<work dir>. To re-record, run this script with the binaries of a
# build you trust and copy WORK/table1.stdout and WORK/table2.stdout over
# the goldens.

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

foreach(table table1 table2)
  if(table STREQUAL "table1")
    set(bin ${TABLE1})
  else()
    set(bin ${TABLE2})
  endif()
  execute_process(
    COMMAND ${bin}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${table}: exit code ${code}, expected 0")
  endif()
  # Only the measured time has three decimals followed by its bracketed
  # paper value ("  0.006 [4.92]"); the precision columns have two.
  string(REGEX REPLACE " +[0-9]+\\.[0-9][0-9][0-9] \\[" " T.TTT [" out
         "${out}")
  file(WRITE ${WORK}/${table}.stdout "${out}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK}/${table}.stdout ${GOLDEN}/${table}.stdout
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
      "${table}: stdout differs from the golden file; compare\n"
      "  ${WORK}/${table}.stdout\n  ${GOLDEN}/${table}.stdout")
  endif()
endforeach()
