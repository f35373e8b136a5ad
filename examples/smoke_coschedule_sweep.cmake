# End-to-end exercise of an ActiveMeasurer-style driver under the worker
# contract (ctest smoke entry): coschedule_advisor's profiling grid, run
#   1. serially into its own store (the ground truth),
#   2. through amsweep with 2 lease workers and one injected worker kill
#      (the first fresh offer claims the crash marker -> SIGKILL holding
#      the lease -> requeue), whose merged store must be bit-identical to
#      the serial one,
#   3. again unsharded against the merged store, which must be fully
#      cached (zero engine runs),
#   4. as two manual --shard slices joined by `amresult merge`, which must
#      give the same bytes once more.
# Driven by -D vars:
#   AMSWEEP  — path to the amsweep binary
#   ADVISOR  — path to the coschedule_advisor binary
#   AMRESULT — path to the amresult binary
#   WORKDIR  — scratch directory (wiped on entry)
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(advisor_args --scale 256 --accesses 6000)
set(store coschedule_advisor.tsv)

function(run_checked out_var)
  execute_process(COMMAND ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGN}\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(require_same_store a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${what} differs from the direct serial run's store")
  endif()
endfunction()

# 1. Ground truth.
run_checked(direct "${ADVISOR}" ${advisor_args}
  --results-dir "${WORKDIR}/direct")

# 2. Orchestrated, with exactly one worker dying mid-lease.
file(WRITE "${WORKDIR}/crash.marker" "")
run_checked(orchestrated "${AMSWEEP}"
  --results-dir "${WORKDIR}/orch" --workers 2 --retries 1
  --stall-timeout 120 --
  "${ADVISOR}" ${advisor_args} --test-crash-marker "${WORKDIR}/crash.marker")
if(EXISTS "${WORKDIR}/crash.marker")
  message(FATAL_ERROR "no worker claimed the crash marker:\n${orchestrated}")
endif()
if(NOT orchestrated MATCHES "signal 9")
  message(FATAL_ERROR
    "expected a SIGKILLed worker attempt in the log:\n${orchestrated}")
endif()
require_same_store("${WORKDIR}/direct/${store}" "${WORKDIR}/orch/${store}"
  "orchestrated store")

# 3. The merged store makes the unsharded advisor fully cached.
run_checked(cached "${ADVISOR}" ${advisor_args}
  --results-dir "${WORKDIR}/orch")
if(NOT cached MATCHES "\\(0 executed")
  message(FATAL_ERROR
    "expected a fully cached re-run against the merged store, got:\n"
    "${cached}")
endif()

# 4. Manual shards + amresult merge give the same bytes.
run_checked(shard0 "${ADVISOR}" ${advisor_args}
  --results-dir "${WORKDIR}/shards" --shard 0/2)
run_checked(shard1 "${ADVISOR}" ${advisor_args}
  --results-dir "${WORKDIR}/shards" --shard 1/2)
run_checked(merged "${AMRESULT}" merge --out "${WORKDIR}/shards/${store}"
  "${WORKDIR}/shards/coschedule_advisor.shard0of2.tsv"
  "${WORKDIR}/shards/coschedule_advisor.shard1of2.tsv")
require_same_store("${WORKDIR}/direct/${store}" "${WORKDIR}/shards/${store}"
  "shard-merged store")
