# Renames one key in a copy of a bench JSON file that passes the gate, then
# checks that bench_compare.py exits 2 (a schema error, not a regression or a
# traceback) and names the key's path. Run with cmake -P and these variables:
#   PYTHON, BENCH_COMPARE   the interpreter and the gate
#   BASELINE, CANDIDATE     a pair the gate passes
#   KEY                     the key's JSON path, dot-separated (versions.0.totals.msgs_local)
#   LABEL                   the path the gate must print for it
#   OUT                     where to write the renamed candidate
file(READ ${CANDIDATE} doc)
string(REPLACE "." ";" KEY "${KEY}")
list(POP_BACK KEY leaf)
string(JSON value GET "${doc}" ${KEY} ${leaf})
string(JSON doc REMOVE "${doc}" ${KEY} ${leaf})
string(JSON doc SET "${doc}" ${KEY} ${leaf}_renamed "${value}")
file(WRITE ${OUT} "${doc}")
execute_process(COMMAND ${PYTHON} ${BENCH_COMPARE} ${BASELINE} ${OUT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
string(FIND "${out}" "${LABEL} is in the baseline but not the candidate" at)
if(NOT rc EQUAL 2 OR at EQUAL -1)
  message(FATAL_ERROR "renaming ${LABEL}: bench_compare exited ${rc}:\n${out}")
endif()
