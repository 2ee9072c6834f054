# A cache hit must never stand in for an input that cannot be read
# (docs/INCREMENTAL.md, "Unreadable inputs"). An app whose layout is
# empty is analyzed and cached; then the layout is replaced by a file
# whose read fails (a symlink to /proc/self/mem, which is a regular file
# that reads with EIO at offset 0, even for root). The next run with the
# same cache must report the unreadable file and exit 1, exactly like an
# uncached run, instead of replaying the cached empty-layout result.
# Invoked by ctest with -DCLI=<gator_cli> -DAPP=<app dir> -DLAYOUT=<name
# of one layout file of the app> -DWORK=<scratch dir>.

if(NOT EXISTS /proc/self/mem)
  message(FATAL_ERROR "this check needs /proc/self/mem")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
file(COPY ${APP}/ DESTINATION ${WORK}/app)
set(cache_dir ${WORK}/cache)

# 1. The empty layout: analyzed (with an "empty document" error) and
#    stored.
file(WRITE ${WORK}/app/${LAYOUT} "")
execute_process(
  COMMAND ${CLI} ${WORK}/app --no-times --cache-dir ${cache_dir}
  OUTPUT_VARIABLE empty_out ERROR_VARIABLE empty_err
  RESULT_VARIABLE empty_code)
if(NOT empty_err MATCHES "empty document")
  message(FATAL_ERROR "empty layout gave no 'empty document' error:\n"
                      "${empty_err}")
endif()
file(GLOB cached_entries ${cache_dir}/*.gsc)
if(cached_entries STREQUAL "")
  message(FATAL_ERROR "the empty-layout run stored no cache entry")
endif()

# 2. The unreadable layout, without and then with the cache.
file(REMOVE ${WORK}/app/${LAYOUT})
file(CREATE_LINK /proc/self/mem ${WORK}/app/${LAYOUT} SYMBOLIC)
execute_process(
  COMMAND ${CLI} ${WORK}/app --no-times
  OUTPUT_VARIABLE cold_out ERROR_VARIABLE cold_err RESULT_VARIABLE cold_code)
if(NOT cold_code EQUAL 1 OR NOT cold_err MATCHES "error: cannot read")
  message(FATAL_ERROR "uncached run on an unreadable layout: exit "
                      "${cold_code}, stderr:\n${cold_err}")
endif()
foreach(pass 1 2)
  execute_process(
    COMMAND ${CLI} ${WORK}/app --no-times --cache-dir ${cache_dir}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
  if(NOT out STREQUAL cold_out OR NOT err STREQUAL cold_err OR
     NOT code EQUAL cold_code)
    message(FATAL_ERROR
      "cached run ${pass} on an unreadable layout differs from the "
      "uncached run (exit ${code}, expected ${cold_code}); stderr:\n${err}")
  endif()
endforeach()
file(GLOB after_entries ${cache_dir}/*.gsc)
list(LENGTH cached_entries before_count)
list(LENGTH after_entries after_count)
if(NOT after_count EQUAL before_count)
  message(FATAL_ERROR "a run with an unreadable input stored a cache entry")
endif()
message(STATUS "unreadable input bypasses the cache")
