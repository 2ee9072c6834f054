# Golden output for the paper corpus through the frontend: the 20 apps
# written by export_corpus must analyze to exactly the recorded stdout,
# stderr and exit code under `gator_cli --batch --no-times`, and two
# malformed copies of NotePad (one with lex errors, one with a parse error)
# must report exactly the recorded `--diag-format=json` diagnostics. Run
# under ASan this also catches a token or location that outlives its
# buffer on real input. Invoked by ctest with -DCLI=<gator_cli>
# -DEXPORT=<export_corpus> -DGOLDEN=<tests/fixtures/corpus_golden>
# -DWORK=<work dir>. The CLI runs inside WORK on relative paths, so the
# file names in diagnostics do not depend on the build directory.

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

execute_process(
  COMMAND ${EXPORT} corpus
  WORKING_DIRECTORY ${WORK}
  OUTPUT_QUIET
  RESULT_VARIABLE export_code)
if(NOT export_code EQUAL 0)
  message(FATAL_ERROR "export_corpus exited ${export_code}")
endif()

# Each malformed copy is NotePad with a checked-in tail appended.
foreach(kind lex parse)
  if(kind STREQUAL "lex")
    set(app LexError)
  else()
    set(app ParseError)
  endif()
  file(COPY ${WORK}/corpus/NotePad/ DESTINATION ${WORK}/malformed/${app})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E cat ${WORK}/corpus/NotePad/app.alite
            ${GOLDEN}/${kind}_error_tail.alite
    OUTPUT_FILE ${WORK}/malformed/${app}/app.alite
    RESULT_VARIABLE cat_code)
  if(NOT cat_code EQUAL 0)
    message(FATAL_ERROR "could not build the malformed ${app} copy")
  endif()
endforeach()

# Runs the CLI with ARGN and compares stdout, stderr and the exit code
# with ${GOLDEN}/<name>.stdout, <name>.stderr and expect_code.
function(check_golden name expect_code)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    WORKING_DIRECTORY ${WORK}
    OUTPUT_FILE ${WORK}/${name}.stdout
    ERROR_FILE ${WORK}/${name}.stderr
    RESULT_VARIABLE code)
  if(NOT code STREQUAL "${expect_code}")
    message(FATAL_ERROR "${name}: exit code ${code}, expected ${expect_code}")
  endif()
  foreach(stream stdout stderr)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${WORK}/${name}.${stream} ${GOLDEN}/${name}.${stream}
      RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      message(FATAL_ERROR
        "${name}: ${stream} differs from the golden file; compare\n"
        "  ${WORK}/${name}.${stream}\n  ${GOLDEN}/${name}.${stream}")
    endif()
  endforeach()
endfunction()

check_golden(batch 0 --batch --no-times corpus)
check_golden(malformed 1 --batch --no-times --diag-format=json malformed)

message(STATUS "corpus and malformed copies match the golden output")
