# Run-ledger round trip (docs/OBSERVABILITY.md, "Run ledger & reports"):
# a batch run's --ledger-out document must be byte-identical at every
# -j value (written under --no-times, which suppresses the volatile
# fields), `gator_cli report` must render it in both
# formats, a ledger self-diff must be empty (exit 0), a diff against a
# run with different analysis options must be refused (exit 2), and a
# warm --cache-dir pass must stamp its records "hit" while staying
# field-identical to the cold pass. A single-app ledger names the app by
# the last component of its directory, however the path is spelled
# (`app/` and `app/.` included). Invoked by ctest with
# -DCLI=<gator_cli> -DDIR=<batch input dir> -DWORK=<scratch dir>.

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# --- 1. byte-identity across -j ---------------------------------------------
foreach(jobs 1 2 4 8)
  execute_process(
    COMMAND ${CLI} --batch --no-times -j ${jobs} ${DIR}
            --ledger-out=${WORK}/ledger_j${jobs}.jsonl
    RESULT_VARIABLE run_code
    OUTPUT_QUIET ERROR_QUIET)
  if(run_code GREATER 1)
    message(FATAL_ERROR "gator_cli --batch -j ${jobs} failed: ${run_code}")
  endif()
endforeach()
foreach(jobs 2 4 8)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK}/ledger_j1.jsonl ${WORK}/ledger_j${jobs}.jsonl
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "ledger differs between -j 1 and -j ${jobs}")
  endif()
endforeach()

# --- 2. report renders in both formats --------------------------------------
execute_process(
  COMMAND ${CLI} report ${WORK}/ledger_j1.jsonl
  RESULT_VARIABLE report_code
  OUTPUT_VARIABLE report_text)
if(NOT report_code EQUAL 0)
  message(FATAL_ERROR "report (text) failed: ${report_code}")
endif()
string(FIND "${report_text}" "fleet report" found)
if(found EQUAL -1)
  message(FATAL_ERROR "text report missing its headline:\n${report_text}")
endif()
execute_process(
  COMMAND ${CLI} report ${WORK}/ledger_j1.jsonl --report-format json
  RESULT_VARIABLE report_code
  OUTPUT_FILE ${WORK}/report.json)
if(NOT report_code EQUAL 0)
  message(FATAL_ERROR "report (json) failed: ${report_code}")
endif()

# --- 3. self-diff is empty; option skew is refused --------------------------
execute_process(
  COMMAND ${CLI} report --diff
          ${WORK}/ledger_j1.jsonl ${WORK}/ledger_j4.jsonl
  RESULT_VARIABLE diff_code
  OUTPUT_VARIABLE diff_text)
if(NOT diff_code EQUAL 0)
  message(FATAL_ERROR
    "self-diff exited ${diff_code} (expected 0):\n${diff_text}")
endif()
string(FIND "${diff_text}" "no differences" found)
if(found EQUAL -1)
  message(FATAL_ERROR "self-diff output unexpected:\n${diff_text}")
endif()

execute_process(
  COMMAND ${CLI} --batch --no-times --no-unknown-sources ${DIR}
          --ledger-out=${WORK}/ledger_other.jsonl
  RESULT_VARIABLE run_code
  OUTPUT_QUIET ERROR_QUIET)
if(run_code GREATER 1)
  message(FATAL_ERROR "option-skew run failed: ${run_code}")
endif()
execute_process(
  COMMAND ${CLI} report --diff
          ${WORK}/ledger_j1.jsonl ${WORK}/ledger_other.jsonl
  RESULT_VARIABLE diff_code
  OUTPUT_QUIET ERROR_QUIET)
if(NOT diff_code EQUAL 2)
  message(FATAL_ERROR
    "diff of differently-optioned ledgers exited ${diff_code} (expected 2)")
endif()

# --- 4. warm cache passes stamp hits, stay field-identical ------------------
execute_process(
  COMMAND ${CLI} --batch --no-times --cache-dir ${WORK}/cache ${DIR}
          --ledger-out=${WORK}/ledger_cold.jsonl
  RESULT_VARIABLE run_code
  OUTPUT_QUIET ERROR_QUIET)
if(run_code GREATER 1)
  message(FATAL_ERROR "cold cache run failed: ${run_code}")
endif()
execute_process(
  COMMAND ${CLI} --batch --no-times --cache-dir ${WORK}/cache ${DIR}
          --ledger-out=${WORK}/ledger_warm.jsonl
  RESULT_VARIABLE run_code
  OUTPUT_QUIET ERROR_QUIET)
if(run_code GREATER 1)
  message(FATAL_ERROR "warm cache run failed: ${run_code}")
endif()
file(READ ${WORK}/ledger_cold.jsonl cold_text)
file(READ ${WORK}/ledger_warm.jsonl warm_text)
string(FIND "${cold_text}" "\"cache\":\"miss\"" found)
if(found EQUAL -1)
  message(FATAL_ERROR "cold ledger carries no miss records")
endif()
string(FIND "${warm_text}" "\"cache\":\"hit\"" found)
if(found EQUAL -1)
  message(FATAL_ERROR "warm ledger carries no hit records")
endif()
string(FIND "${warm_text}" "\"cache\":\"miss\"" found)
if(NOT found EQUAL -1)
  message(FATAL_ERROR "warm ledger still carries miss records")
endif()
# miss -> hit is not a regression: the cold-vs-warm diff must be empty.
execute_process(
  COMMAND ${CLI} report --diff
          ${WORK}/ledger_cold.jsonl ${WORK}/ledger_warm.jsonl
  RESULT_VARIABLE diff_code
  OUTPUT_QUIET ERROR_QUIET)
if(NOT diff_code EQUAL 0)
  message(FATAL_ERROR
    "cold-vs-warm diff exited ${diff_code} (expected 0)")
endif()

# --- 5. single-app ledgers name the app whatever the spelling --------------
file(GLOB app_dirs LIST_DIRECTORIES true ${DIR}/*)
list(SORT app_dirs)
foreach(dir ${app_dirs})
  if(IS_DIRECTORY ${dir})
    set(app_dir ${dir})
    break()
  endif()
endforeach()
get_filename_component(app_name ${app_dir} NAME)
set(spelling_index 0)
foreach(spelling "${app_dir}" "${app_dir}/" "${app_dir}/." "${app_dir}//")
  math(EXPR spelling_index "${spelling_index} + 1")
  set(single_ledger ${WORK}/single_${spelling_index}.jsonl)
  execute_process(
    COMMAND ${CLI} ${spelling} --no-times --ledger-out=${single_ledger}
    RESULT_VARIABLE run_code
    OUTPUT_QUIET ERROR_QUIET)
  if(run_code GREATER 1)
    message(FATAL_ERROR "single-app run on '${spelling}' failed: ${run_code}")
  endif()
  file(READ ${single_ledger} single_text)
  string(FIND "${single_text}" "\"app\":\"${app_name}\"" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "single-app ledger for '${spelling}' does not name ${app_name}:\n"
      "${single_text}")
  endif()
endforeach()

# --- 6. JSON report schema (python3, when present) --------------------------
find_program(PYTHON3 python3)
if(NOT PYTHON3)
  message(STATUS "python3 not found; skipping report schema validation")
  return()
endif()
file(WRITE "${WORK}/validate_report.py" "
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc['report_format'] == 1, doc['report_format']
ledger = doc['ledger']
for key in ('ledger_format', 'tool', 'options_digest', 'no_times'):
    assert key in ledger, 'ledger header missing %s' % key
assert doc['apps'] > 0
for key in ('degraded', 'generation_failures', 'cache', 'by_fidelity',
            'by_exit_code', 'unknown_by_reason', 'fields', 'outliers'):
    assert key in doc, 'report missing %s' % key
for f in doc['fields']:
    for key in ('field', 'count', 'sum', 'p50', 'p90', 'p99', 'max'):
        assert key in f, 'field summary missing %s: %r' % (key, f)
    assert f['count'] == doc['apps']
names = {f['field'] for f in doc['fields']}
assert 'propagations' in names and 'arena_bytes' in names
assert 'solve_seconds' not in names, 'volatile field in a no-times report'
for dim in doc['outliers']:
    assert dim['top'], 'empty outlier dimension %r' % dim['dimension']
    vals = [row['value'] for row in dim['top']]
    assert vals == sorted(vals, reverse=True), 'outliers not ranked'
print('report OK: %d apps, %d fields' % (doc['apps'], len(doc['fields'])))
")
execute_process(
  COMMAND ${PYTHON3} ${WORK}/validate_report.py ${WORK}/report.json
  RESULT_VARIABLE schema_ok
  OUTPUT_VARIABLE schema_out
  ERROR_VARIABLE schema_err)
if(NOT schema_ok EQUAL 0)
  message(FATAL_ERROR "report schema validation failed:\n${schema_err}")
endif()

message(STATUS "run ledger byte-identical at every -j; "
               "reports and diffs behave")
