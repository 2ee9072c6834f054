#!/usr/bin/env bash
# Checks that two builds of gator-cpp give byte-identical results.
#
#   tests/compare_builds.sh <base-build> <new-build> [work-dir]
#
# Both arguments are CMake build directories (with examples/gator_cli,
# examples/export_corpus, bench/bench_table1 and bench/bench_table2), for
# example a build of the parent commit and a build of a change. The script
# runs both builds over the same inputs:
#   - the 20 paper-corpus apps written by the base build's export_corpus
#     (the new build's export must write the same files);
#   - the apps under examples/ and tests/fixtures/hostile_batch;
#   - two malformed NotePad copies (the corpus_golden lex and parse tails);
# and compares stdout, stderr, the exit code and every written file of:
#   - each app with no output flag, and with --solution --tuples
#     --hierarchy --atg --reach --lint plus --json/--dot/--ledger-out/
#     --metrics-out files;
#   - --explain on the full sample app and the dynamic-id hostile app;
#   - --incremental-edit on tests/fixtures/incremental_base;
#   - --batch runs at -j 1 and -j 4 with ledgers and JSON/Prometheus
#     metrics, and the malformed copies with --diag-format=json;
#   - bench_table1 and bench_table2 (the measured time column masked, as
#     in ctest's paper_tables_golden).
# Every run uses --no-times, so no wall-clock value reaches the output.
# It is not a ctest: it needs a second build.
#
# Exit status: 0 when everything matches, 1 when anything differs (each
# difference is listed), 2 on a usage error. The work directory is removed
# on success unless it was given.

set -u

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 <base-build> <new-build> [work-dir]" >&2
  exit 2
fi
SRC=$(cd "$(dirname "$0")/.." && pwd)
BASE=$(cd "$1" && pwd) || exit 2
NEW=$(cd "$2" && pwd) || exit 2
for B in "$BASE" "$NEW"; do
  for T in examples/gator_cli examples/export_corpus bench/bench_table1 \
           bench/bench_table2; do
    if [ ! -x "$B/$T" ]; then
      echo "error: $B/$T is missing; build it first" >&2
      exit 2
    fi
  done
done
if [ $# -eq 3 ]; then
  WORK=$3
  KEEP=1
else
  WORK=$(mktemp -d)
  KEEP=0
fi
rm -rf "$WORK"
mkdir -p "$WORK/in" "$WORK/base" "$WORK/new" || exit 2
IN=$WORK/in

# Inputs, at relative paths under $IN so diagnostics name the same files.
(cd "$IN" && "$BASE/examples/export_corpus" corpus >/dev/null) || {
  echo "error: base export_corpus failed" >&2
  exit 2
}
(mkdir -p "$WORK/export" && cd "$WORK/export" &&
  "$NEW/examples/export_corpus" corpus >/dev/null) || {
  echo "error: new export_corpus failed" >&2
  exit 2
}
cp -r "$SRC/examples" "$IN/examples"
cp -r "$SRC/tests/fixtures/hostile_batch" "$IN/hostile"
cp -r "$SRC/tests/fixtures/incremental_base" "$SRC/tests/fixtures/incremental_edit" "$IN/"
for Kind in lex parse; do
  App=$IN/malformed/${Kind}_error
  mkdir -p "$App"
  cp -r "$IN/corpus/NotePad/." "$App/"
  cat "$IN/corpus/NotePad/app.alite" \
      "$SRC/tests/fixtures/corpus_golden/${Kind}_error_tail.alite" >"$App/app.alite"
done

FAILS=0
fail() {
  echo "DIFF: $*"
  FAILS=$((FAILS + 1))
}

if ! diff -r "$IN/corpus" "$WORK/export/corpus" >/dev/null; then
  fail "export_corpus writes different apps"
fi

# run <name> <program> <args...>: runs the program from both builds in $IN
# and compares stdout, stderr, the exit code and the files it wrote to
# out.* (moved aside after each run). With MASK_TIMES=1 the measured time
# column of a paper table ("  0.006 [4.92]") is masked in stdout first.
run() {
  local Name=$1 Prog=$2
  shift 2
  local Side Build
  for Side in base new; do
    if [ $Side = base ]; then Build=$BASE; else Build=$NEW; fi
    rm -f "$IN"/out.*
    (cd "$IN" && "$Build/$Prog" "$@" >"$WORK/$Side/$Name.stdout" \
      2>"$WORK/$Side/$Name.stderr"; echo $? >"$WORK/$Side/$Name.code")
    local F
    for F in "$IN"/out.*; do
      [ -e "$F" ] && mv "$F" "$WORK/$Side/$Name.$(basename "$F")"
    done
    if [ "${MASK_TIMES:-0}" = 1 ]; then
      sed -E -i 's/ +[0-9]+\.[0-9]{3} \[/ T.TTT [/g' "$WORK/$Side/$Name.stdout"
    fi
  done
  local Rel
  for Rel in $(cd "$WORK" && ls base/"$Name".* new/"$Name".* |
               sed 's|^[a-z]*/||' | sort -u); do
    if ! cmp -s "$WORK/base/$Rel" "$WORK/new/$Rel"; then
      fail "$Rel (compare $WORK/base/$Rel $WORK/new/$Rel)"
    fi
  done
}

CLI=examples/gator_cli
FULL=(--solution --tuples --hierarchy --atg --reach --lint)
FILES=(--json out.json --dot out.dot --ledger-out out.ledger
       --metrics-out out.metrics.json)
APPS=()
while IFS= read -r D; do
  APPS+=("${D%/}")
done < <(cd "$IN" && ls -d corpus/*/ examples/sample_*/ hostile/*/ malformed/*/)
for App in "${APPS[@]}"; do
  Tag=${App//\//_}
  run "default_$Tag" $CLI "$App" --no-times
  run "full_$Tag" $CLI "$App" --no-times "${FULL[@]}" "${FILES[@]}"
done

run explain_sample $CLI examples/sample_full_app --no-times \
  --explain go@HomeActivity
run explain_hostile $CLI hostile/dynamic_id_app --no-times \
  --explain v@DynActivity
run incremental $CLI incremental_base --no-times \
  --incremental-edit incremental_edit

for Dir in corpus examples hostile; do
  for J in 1 4; do
    run "batch_${Dir}_j$J" $CLI --batch "$Dir" -j $J --no-times \
      --ledger-out out.ledger --metrics-out out.metrics.json
  done
  run "batch_${Dir}_prom" $CLI --batch "$Dir" --no-times \
    --metrics-out out.metrics.prom --metrics-format prom
done
run batch_malformed $CLI --batch malformed --no-times --diag-format=json \
  --ledger-out out.ledger

for T in table1 table2; do
  MASK_TIMES=1 run "bench_$T" bench/bench_$T
done

echo "compared ${#APPS[@]} apps in $WORK"
if [ $FAILS -ne 0 ]; then
  echo "$FAILS difference(s)"
  exit 1
fi
echo "all outputs identical"
[ $KEEP -eq 1 ] || rm -rf "$WORK"
exit 0
