# ctest wrapper for the example batch manifest (docs/BATCH.md): runs
# glifs_batch on examples/fleet.manifest and asserts the exact
# aggregated exit code (1: the fleet contains a violations job) plus a
# well-formed glifs.batch_report.v1 on disk, whose worker_stats sum
# the final stats of all four worker processes (tight-mult runs twice),
# and tight-mult's budget stop, read from its first attempt's run
# report, printed once before its retry.
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

execute_process(
    COMMAND "${GLIFS_BATCH}" "${MANIFEST}"
            --jobs 2
            --audit-bin "${GLIFS_AUDIT}"
            --cache-dir "${WORK}/cache"
            --report "${WORK}/report.json"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(NOT code EQUAL 1)
    message(FATAL_ERROR
        "glifs_batch exited ${code}, expected 1 (violations job "
        "dominates the fleet)\nstdout:\n${out}\nstderr:\n${err}")
endif()

file(READ "${WORK}/report.json" report)
if(NOT report MATCHES "glifs\\.batch_report\\.v1")
    message(FATAL_ERROR "report.json lacks the schema marker:\n${report}")
endif()
if(NOT report MATCHES "\"jobs_total\": 3")
    message(FATAL_ERROR "report.json lacks jobs_total 3:\n${report}")
endif()
if(NOT report MATCHES "\"engine\\.runs\": 4[,\n]")
    message(FATAL_ERROR
        "report.json worker_stats lack engine.runs 4 (three jobs, "
        "tight-mult twice):\n${report}")
endif()

set(stop "[tight-mult] budget exhausted: cycles (60 simulated cycles)")
string(REGEX MATCHALL "budget exhausted" stops "${out}")
list(LENGTH stops nstops)
string(FIND "${out}" "${stop}" stopAt)
string(FIND "${out}" "[tight-mult] attempt 1 degraded" retryAt)
if(NOT nstops EQUAL 1 OR stopAt EQUAL -1 OR NOT stopAt LESS retryAt)
    message(FATAL_ERROR
        "expected one '${stop}' line before the retry line:\n${out}")
endif()
