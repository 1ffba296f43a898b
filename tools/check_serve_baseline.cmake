# Warm-baseline save/load round-trip, plus fixture setup for the damaged-
# baseline error tests.
#
#   * --save-baseline writes the default faults baseline image;
#   * --baseline installs it, and a query answered from the installed image
#     must be byte-identical to the in-process (no --baseline) answer;
#   * snapcorrupt then produces truncated / bit-flipped / section-damaged
#     copies for the serve_error_baseline_* tests, which assert that forking
#     a damaged image yields a typed corrupt_baseline rejection instead of
#     taking the server down. serve_baseline_count.snap passes every CRC: its
#     flowsim active-flow count (payload offset 36) is 2^61, which the reader
#     must reject before sizing anything from it.
#
# Usage: cmake -DSERVE=<netpp_serve> -DCORRUPT=<snapcorrupt> -DOUT_DIR=<dir>
#              -P check_serve_baseline.cmake
if(NOT DEFINED SERVE OR NOT DEFINED CORRUPT OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "check_serve_baseline.cmake needs SERVE, CORRUPT, OUT_DIR")
endif()

set(baseline ${OUT_DIR}/serve_baseline.snap)

function(run_tool out_var)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE stdout_text
    ERROR_VARIABLE stderr_text
  )
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "${ARGN} failed (${exit_code}): ${stderr_text}")
  endif()
  set(${out_var} "${stdout_text}" PARENT_SCOPE)
endfunction()

run_tool(ignored ${SERVE} --save-baseline ${baseline})
if(NOT EXISTS ${baseline})
  message(FATAL_ERROR "--save-baseline did not write ${baseline}")
endif()

# The default faults answer from the installed image vs built in-process.
set(query "{\"command\":\"faults\",\"output\":\"csv\"}")
run_tool(from_file ${SERVE} --baseline ${baseline} --oneshot ${query})
run_tool(in_process ${SERVE} --oneshot ${query})
if(NOT from_file STREQUAL in_process)
  message(FATAL_ERROR
    "answer from the loaded baseline diverged from the in-process one\n"
    "--- loaded ---\n${from_file}\n--- in-process ---\n${in_process}")
endif()

# Damaged copies for the serve_error_baseline_* tests.
foreach(damage
    "truncate;64;serve_baseline_truncated.snap"
    "flip;100;serve_baseline_flipped.snap"
    "flip-section;fault_experiment;serve_baseline_badsection.snap"
    "set-u64;flowsim 36 2305843009213693952;serve_baseline_count.snap")
  list(GET damage 0 mode)
  list(GET damage 1 arg)
  list(GET damage 2 name)
  separate_arguments(arg)
  execute_process(
    COMMAND ${CORRUPT} ${baseline} ${OUT_DIR}/${name} ${mode} ${arg}
    RESULT_VARIABLE exit_code
    ERROR_VARIABLE stderr_text
  )
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "snapcorrupt ${mode} failed: ${stderr_text}")
  endif()
endforeach()
