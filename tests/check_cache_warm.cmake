# Content-addressed cache contract (docs/INCREMENTAL.md), CLI level:
#  1. a cold run with --cache-dir populates the disk tier;
#  2. a warm run replays byte-identical stdout and the same exit code;
#  3. a warm *batch* run stays byte-identical at -j 1/2/4/8, and its
#     --ledger-out and --metrics-out (JSON and Prometheus) files equal the
#     cold batch's once the gator_cache_* samples and the ledger's "cache"
#     values are dropped;
#  4. poisoning every cached artifact degrades the next run to a full
#     solve — same stdout, same exit code as cold, a warning on stderr —
#     never a crash, never different results;
#  5. a copy of a cached app under another directory is not served the
#     original's entry: its diagnostics print its own paths, exactly as
#     an uncached run of the copy does.
# Invoked by ctest with -DCLI=<gator_cli> -DAPP=<single app dir>
# -DDIR=<batch input dir> -DWORK=<scratch dir>.

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set(cache_dir ${WORK}/cache)

# --- Single app: cold, then warm ---------------------------------------
execute_process(
  COMMAND ${CLI} ${APP} --tuples --solution --no-times --cache-dir ${cache_dir}
  OUTPUT_VARIABLE cold_out ERROR_VARIABLE cold_err RESULT_VARIABLE cold_code)
file(GLOB cached_entries ${cache_dir}/*.gsc)
if(cached_entries STREQUAL "")
  message(FATAL_ERROR "cold run left no .gsc artifact in ${cache_dir}")
endif()

execute_process(
  COMMAND ${CLI} ${APP} --tuples --solution --no-times --cache-dir ${cache_dir}
  OUTPUT_VARIABLE warm_out ERROR_VARIABLE warm_err RESULT_VARIABLE warm_code)
if(NOT warm_out STREQUAL cold_out)
  message(FATAL_ERROR "warm stdout differs from cold stdout")
endif()
if(NOT warm_code EQUAL cold_code)
  message(FATAL_ERROR
    "warm exit code ${warm_code} differs from cold ${cold_code}")
endif()

# --- Warm batch determinism across job counts --------------------------
execute_process(
  COMMAND ${CLI} --batch --no-times -j 1 --cache-dir ${cache_dir} ${DIR}
  OUTPUT_VARIABLE batch_ref_out ERROR_VARIABLE batch_ref_err
  RESULT_VARIABLE batch_ref_code)
foreach(jobs 2 4 8)
  execute_process(
    COMMAND ${CLI} --batch --no-times -j ${jobs} --cache-dir ${cache_dir} ${DIR}
    OUTPUT_VARIABLE batch_out ERROR_VARIABLE batch_err
    RESULT_VARIABLE batch_code)
  if(NOT batch_out STREQUAL batch_ref_out)
    message(FATAL_ERROR
      "warm batch stdout differs between -j 1 and -j ${jobs}")
  endif()
  if(NOT batch_err STREQUAL batch_ref_err)
    message(FATAL_ERROR
      "warm batch stderr differs between -j 1 and -j ${jobs}")
  endif()
  if(NOT batch_code EQUAL batch_ref_code)
    message(FATAL_ERROR
      "warm batch exit code differs between -j 1 and -j ${jobs}")
  endif()
endforeach()

# --- Warm exports equal cold ones --------------------------------------
# A cache hit reads the cold run's per-app record back, so the ledger and
# both metrics formats come out the same; only the cache counters and the
# ledger's hit/miss stamps may differ.
foreach(format json prom)
  foreach(pass cold warm)
    execute_process(
      COMMAND ${CLI} --batch --no-times --cache-dir ${WORK}/cache_${format}
              ${DIR} --ledger-out ${WORK}/${pass}_${format}.jsonl
              --metrics-out ${WORK}/${pass}.${format}
              --metrics-format ${format}
      OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE export_code)
    if(export_code GREATER 1)
      message(FATAL_ERROR "${pass} ${format} export run failed: ${export_code}")
    endif()
    file(READ ${WORK}/${pass}.${format} metrics_${pass})
    file(READ ${WORK}/${pass}_${format}.jsonl ledger_${pass})
    # JSON: one object per instrument; Prometheus: one line per sample,
    # HELP or TYPE line.
    string(REGEX REPLACE "{\"name\":\"gator_cache_[^}]*},?" ""
           metrics_${pass} "${metrics_${pass}}")
    string(REGEX REPLACE "[^\n]*gator_cache_[^\n]*\n" ""
           metrics_${pass} "${metrics_${pass}}")
    string(REGEX REPLACE "\"cache\":\"[a-z]*\"" "\"cache\":\"\""
           ledger_${pass} "${ledger_${pass}}")
  endforeach()
  if(NOT metrics_warm STREQUAL metrics_cold)
    message(FATAL_ERROR "warm --metrics-format ${format} export differs from "
      "the cold one beyond the cache counters:\ncold:\n${metrics_cold}\n"
      "warm:\n${metrics_warm}")
  endif()
  if(NOT ledger_warm STREQUAL ledger_cold)
    message(FATAL_ERROR "warm ledger differs from the cold one beyond the "
      "cache values:\ncold:\n${ledger_cold}\nwarm:\n${ledger_warm}")
  endif()
  file(READ ${WORK}/warm_${format}.jsonl warm_ledger)
  if(NOT warm_ledger MATCHES "\"cache\":\"hit\"")
    message(FATAL_ERROR "warm ledger records no cache hit")
  endif()
endforeach()

# --- Poisoned artifacts degrade to a full solve ------------------------
file(GLOB cached_entries ${cache_dir}/*.gsc)
foreach(entry ${cached_entries})
  file(WRITE ${entry} "poisoned, not a GSC1 artifact")
endforeach()
execute_process(
  COMMAND ${CLI} ${APP} --tuples --solution --no-times --cache-dir ${cache_dir}
  OUTPUT_VARIABLE poisoned_out ERROR_VARIABLE poisoned_err
  RESULT_VARIABLE poisoned_code)
if(NOT poisoned_out STREQUAL cold_out)
  message(FATAL_ERROR "poisoned-cache stdout differs from cold stdout")
endif()
if(NOT poisoned_code EQUAL cold_code)
  message(FATAL_ERROR
    "poisoned-cache exit code ${poisoned_code} differs from cold "
    "${cold_code}")
endif()
if(NOT poisoned_err MATCHES "corrupt cache entry")
  message(FATAL_ERROR
    "poisoned-cache run printed no corrupt-entry diagnostic:\n"
    "${poisoned_err}")
endif()

# --- A copied app replays nothing printed under the original's path -----
# The app gets a syntax error so its stderr names its input files; the
# copy has the same content key but a different directory.
set(moved_cache ${WORK}/cache_moved)
file(MAKE_DIRECTORY ${WORK}/mv)
file(COPY ${APP}/ DESTINATION ${WORK}/mv/A)
file(GLOB broken_sources ${WORK}/mv/A/*.alite)
list(GET broken_sources 0 broken_source)
file(APPEND ${broken_source} "class Broken extends {\n")
execute_process(
  COMMAND ${CLI} ${WORK}/mv/A --no-times --cache-dir ${moved_cache}
  OUTPUT_QUIET ERROR_QUIET)
file(COPY ${WORK}/mv/A/ DESTINATION ${WORK}/mv/B)
execute_process(
  COMMAND ${CLI} ${WORK}/mv/B --no-times --cache-dir ${moved_cache}
  OUTPUT_VARIABLE copy_out ERROR_VARIABLE copy_err RESULT_VARIABLE copy_code)
execute_process(
  COMMAND ${CLI} ${WORK}/mv/B --no-times
  OUTPUT_VARIABLE ref_out ERROR_VARIABLE ref_err RESULT_VARIABLE ref_code)
if(NOT ref_err MATCHES "mv/B/")
  message(FATAL_ERROR "uncached run of the copy names no input path:\n"
    "${ref_err}")
endif()
if(NOT copy_out STREQUAL ref_out)
  message(FATAL_ERROR "copied app: cached stdout differs from uncached")
endif()
if(NOT copy_err STREQUAL ref_err)
  message(FATAL_ERROR "copied app: cached stderr differs from uncached:\n"
    "cached:\n${copy_err}\nuncached:\n${ref_err}")
endif()
if(NOT copy_code EQUAL ref_code)
  message(FATAL_ERROR
    "copied app: cached exit code ${copy_code} differs from ${ref_code}")
endif()

message(STATUS "cache cold/warm/poisoned/copied contract holds (exit ${cold_code})")
