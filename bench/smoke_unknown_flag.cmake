# A typo'd flag must fail a grid driver as a usage error (exit 2) before
# any grid point runs (ctest smoke entry), in a plain run and in a
# scheduler probe alike:
#   1. fig9 with --results-dir: no store file may appear (every executed
#      point is checkpointed into it) and no table may be printed;
#   2. fig10 --emit-plan: no plan file may appear.
# Driven by -D vars:
#   FIG9     — path to the fig9_mcb_degradation binary
#   FIG10    — path to the fig10_mcb_resources binary
#   WORKDIR  — working directory (wiped on entry)
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}/store")

function(require_usage_exit what)
  execute_process(COMMAND ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${what}: expected exit 2, got ${code}\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "bogus-flag")
    message(FATAL_ERROR "${what}: the error does not name the flag:\n${err}")
  endif()
  if(out MATCHES "==")
    message(FATAL_ERROR "${what}: printed a table:\n${out}")
  endif()
endfunction()

# 1. Plain run.
require_usage_exit("fig9 plain run"
  "${FIG9}" --scale 64 --ranks 8 --steps 1 --quick --max-cs 1 --max-bw 1
  --results-dir "${WORKDIR}/store" --bogus-flag 3)
file(GLOB left "${WORKDIR}/store/*")
if(left)
  message(FATAL_ERROR "fig9 plain run: a point ran before the rejection: ${left}")
endif()

# 2. Scheduler probe.
require_usage_exit("fig10 --emit-plan"
  "${FIG10}" --scale 64 --ranks 8 --steps 1 --particles 2000 --quick
  --emit-plan "${WORKDIR}/plan.info" --bogus-flag 3)
if(EXISTS "${WORKDIR}/plan.info")
  message(FATAL_ERROR "fig10 --emit-plan: wrote a plan despite the rejection")
endif()
