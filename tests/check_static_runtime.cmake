# The tools link the C++ runtime statically (examples/CMakeLists.txt): a
# gator_cli that loads libstdc++.so or libgcc_s.so pays about 1 ms of dynamic
# loading per process. Fails if either library is among the binary's
# NEEDED entries. Invoked by ctest with -DREADELF=<readelf> -DBIN=<binary>.

execute_process(
  COMMAND ${READELF} -d ${BIN}
  OUTPUT_VARIABLE dynamic RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${READELF} -d ${BIN} failed with ${code}")
endif()
string(REGEX MATCHALL "\\(NEEDED\\)[^\n]*" needed "${dynamic}")
foreach(entry ${needed})
  if(entry MATCHES "libstdc\\+\\+|libgcc_s")
    message(FATAL_ERROR "${BIN} loads the C++ runtime dynamically: ${entry}")
  endif()
endforeach()
message(STATUS "no dynamic C++ runtime in ${BIN}")
