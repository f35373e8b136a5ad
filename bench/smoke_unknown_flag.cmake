# A typo'd flag must fail a grid driver as a usage error (exit 2) before
# any grid point runs (ctest smoke entry), in a plain run and in a
# scheduler probe alike:
#   1. fig9 with --results-dir: no store file may appear (every executed
#      point is checkpointed into it) and no table may be printed;
#   2. fig10 --emit-plan: no plan file may appear.
# A driver without a grid (fig7) and an example (quickstart) meet the same
# exit-code map: an unknown flag and a malformed flag value each exit 2
# and name the flag (3, 4), where an uncaught exception used to abort
# (SIGABRT) and an unknown flag used to be ignored.
# Driven by -D vars:
#   FIG9       — path to the fig9_mcb_degradation binary
#   FIG10      — path to the fig10_mcb_resources binary
#   FIG7       — path to the fig7_bwthr_vs_csthr binary
#   QUICKSTART — path to the quickstart example binary (unset when the
#                examples are not built)
#   WORKDIR    — working directory (wiped on entry)
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}/store")

# require_usage_exit(<what> <flag> <command...>): exit 2, an error that
# names <flag>, and no table on stdout.
function(require_usage_exit what flag)
  execute_process(COMMAND ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${what}: expected exit 2, got ${code}\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "${flag}")
    message(FATAL_ERROR "${what}: the error does not name ${flag}:\n${err}")
  endif()
  if(out MATCHES "==")
    message(FATAL_ERROR "${what}: printed a table:\n${out}")
  endif()
endfunction()

# 1. Plain run.
require_usage_exit("fig9 plain run" "bogus-flag"
  "${FIG9}" --scale 64 --ranks 8 --steps 1 --quick --max-cs 1 --max-bw 1
  --results-dir "${WORKDIR}/store" --bogus-flag 3)
file(GLOB left "${WORKDIR}/store/*")
if(left)
  message(FATAL_ERROR "fig9 plain run: a point ran before the rejection: ${left}")
endif()

# 2. Scheduler probe.
require_usage_exit("fig10 --emit-plan" "bogus-flag"
  "${FIG10}" --scale 64 --ranks 8 --steps 1 --particles 2000 --quick
  --emit-plan "${WORKDIR}/plan.info" --bogus-flag 3)
if(EXISTS "${WORKDIR}/plan.info")
  message(FATAL_ERROR "fig10 --emit-plan: wrote a plan despite the rejection")
endif()

# 3. A driver without a grid: the typo is caught after its body (which
#    prints its table, so only the exit code and the message are checked
#    there); a malformed value fails before any work.
execute_process(COMMAND "${FIG7}" --scale 64 --iterations 200 --bogus-flag 3
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code EQUAL 2 OR NOT err MATCHES "bogus-flag")
  message(FATAL_ERROR "fig7 unknown flag: expected exit 2 naming the flag, "
                      "got ${code}\n${err}")
endif()
require_usage_exit("fig7 malformed value" "--scale" "${FIG7}" --scale abc)

# 4. An example: both rejections come before any work.
if(QUICKSTART)
  require_usage_exit("quickstart unknown flag" "bogus-flag"
    "${QUICKSTART}" --scale 256 --accesses 8000 --bogus-flag 3)
  require_usage_exit("quickstart malformed value" "--scale"
    "${QUICKSTART}" --scale abc)
endif()
