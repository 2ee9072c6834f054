# Golden output for the paper corpus through the frontend: the 20 apps
# written by export_corpus must analyze to exactly the recorded stdout,
# stderr and exit code under `gator_cli --batch --no-times`, and two
# malformed copies of NotePad (one with lex errors, one with a parse error)
# must report exactly the recorded `--diag-format=json` diagnostics. XBMC
# and NotePad must also give the recorded `--solution --hierarchy` output
# and `--dot` graph, which pin the order of relationship edges, and the
# recorded `--tuples --atg` output. Run
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

# Solution, hierarchy and constraint graph of two apps. The DOT file is
# pinned by its SHA-256; its relationship (dashed) edges are also kept as
# text, so a change in their order shows up as a readable diff.
foreach(app XBMC NotePad)
  set(name graph_${app})
  check_golden(${name} 0 --solution --hierarchy --no-times
               --dot ${name}.dot corpus/${app})
  file(READ ${WORK}/${name}.dot dot)
  # DOT statements end in ';', which CMake would read as list separators.
  string(REPLACE ";" "<semicolon>" dot "${dot}")
  string(REGEX MATCHALL "[^\n]*style=dashed[^\n]*\n" relations "${dot}")
  list(JOIN relations "" relations)
  string(REPLACE "<semicolon>" ";" relations "${relations}")
  file(WRITE ${WORK}/${name}.relations "${relations}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK}/${name}.relations ${GOLDEN}/${name}.relations
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
      "${name}: relationship edges differ from the golden file; compare\n"
      "  ${WORK}/${name}.relations\n  ${GOLDEN}/${name}.relations")
  endif()
  file(SHA256 ${WORK}/${name}.dot digest)
  file(READ ${GOLDEN}/${name}.dot.sha256 expected)
  string(STRIP "${expected}" expected)
  if(NOT digest STREQUAL expected)
    message(FATAL_ERROR "${name}: ${WORK}/${name}.dot has SHA-256 ${digest}, "
                        "expected ${expected}")
  endif()
endforeach()

# Handler tuples and the activity transition graph of the same two apps:
# the clients that share the call graph walk and the node labels with the
# default event sequences.
foreach(app XBMC NotePad)
  check_golden(clients_${app} 0 --tuples --atg --no-times corpus/${app})
endforeach()

message(STATUS "corpus and malformed copies match the golden output")
