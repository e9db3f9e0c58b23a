# Error-contract test for the nwdq binary, run as a CTest script:
#   cmake -DNWDQ=<path-to-nwdq> -DWORK_DIR=<scratch dir> -P nwdq_cli_test.cmake
#
# Contract under test: exit 0 on success (including budget-degraded runs),
# 1 on bad data, 2 on usage errors; every failure is a one-line stderr
# diagnostic and no input makes the binary abort (exit codes >= 128 would
# reveal a signal death).

if(NOT DEFINED NWDQ OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DNWDQ=... -DWORK_DIR=... -P nwdq_cli_test.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

set(FAILURES 0)

# run(<name> <expected-exit> <stderr-substring-or-empty> <args...>)
function(run name expected_exit stderr_substring)
  execute_process(
    COMMAND ${NWDQ} ${ARGN}
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT exit_code STREQUAL "${expected_exit}")
    message(SEND_ERROR
      "${name}: expected exit ${expected_exit}, got '${exit_code}'\n"
      "stderr: ${err}")
  endif()
  if(NOT stderr_substring STREQUAL "")
    if(NOT err MATCHES "${stderr_substring}")
      message(SEND_ERROR
        "${name}: stderr missing '${stderr_substring}'\nstderr: ${err}")
    endif()
    # One-line contract for data errors (exit 1). Usage errors (exit 2)
    # may print the multi-line usage synopsis.
    if(expected_exit STREQUAL "1")
      string(REGEX REPLACE "\n$" "" err_trimmed "${err}")
      string(REGEX MATCHALL "\n" newlines "${err_trimmed}")
      list(LENGTH newlines newline_count)
      if(newline_count GREATER 0)
        message(SEND_ERROR
          "${name}: expected a one-line stderr diagnostic, got:\n${err}")
      endif()
    endif()
  endif()
  set(LAST_STDOUT "${out}" PARENT_SCOPE)
endfunction()

# --- Fixtures -------------------------------------------------------------

set(GOOD_GRAPH "${WORK_DIR}/good.g")
file(WRITE "${GOOD_GRAPH}" "graph 4 2\ne 0 1\ne 1 2\nc 0 0\nc 3 1\n")

set(BAD_RANGE_GRAPH "${WORK_DIR}/bad_range.g")
file(WRITE "${BAD_RANGE_GRAPH}" "graph 4 1\ne 0 9\n")

set(HUGE_HEADER_GRAPH "${WORK_DIR}/huge.g")
file(WRITE "${HUGE_HEADER_GRAPH}" "graph 99999999999999999999 2\n")

set(TRUNCATED_GRAPH "${WORK_DIR}/truncated.g")
file(WRITE "${TRUNCATED_GRAPH}" "graph 4 1\ne 0\n")

# A 60-vertex clique: big enough to bypass the naive cutoff, dense enough
# that a one-unit work cap trips deterministically at the cover stage.
set(CLIQUE_GRAPH "${WORK_DIR}/clique60.g")
set(clique_lines "graph 60 1\n")
foreach(u RANGE 0 59)
  foreach(v RANGE 0 59)
    if(u LESS v)
      string(APPEND clique_lines "e ${u} ${v}\n")
    endif()
  endforeach()
endforeach()
file(WRITE "${CLIQUE_GRAPH}" "${clique_lines}")

# A 60-vertex path with both colors on a stride: past the naive cutoff,
# so the LNF engine (cover, kernels, skips, bytecode) runs on it.
set(PATH_GRAPH "${WORK_DIR}/path60.g")
set(path_lines "graph 60 2\n")
foreach(u RANGE 0 58)
  math(EXPR v "${u} + 1")
  string(APPEND path_lines "e ${u} ${v}\n")
endforeach()
foreach(v RANGE 0 59 2)
  string(APPEND path_lines "c ${v} 0\n")
endforeach()
foreach(v RANGE 0 59 3)
  string(APPEND path_lines "c ${v} 1\n")
endforeach()
file(WRITE "${PATH_GRAPH}" "${path_lines}")

set(GOOD_PROBES "${WORK_DIR}/good.probes")
file(WRITE "${GOOD_PROBES}"
  "# mixed probe kinds; blank lines and comments are skipped\n"
  "\n"
  "test 0,1\n"
  "next 0,0\n"
  "1,2\n"
  "  next 3,3\n")

set(BAD_PARSE_PROBES "${WORK_DIR}/bad_parse.probes")
file(WRITE "${BAD_PARSE_PROBES}" "test 0,1\nnext 1,2,3\n")

# The same probes as GOOD_PROBES minus the leading comment, but with CRLF
# line endings and no newline after the final line — both must parse.
set(CRLF_PROBES "${WORK_DIR}/crlf.probes")
file(WRITE "${CRLF_PROBES}"
  "test 0,1\r\n\r\nnext 0,0\r\n1,2\r\n  next 3,3")

set(EMPTY_PROBES "${WORK_DIR}/empty.probes")
file(WRITE "${EMPTY_PROBES}" "")

set(TRAILING_COMMA_PROBES "${WORK_DIR}/trailing_comma.probes")
file(WRITE "${TRAILING_COMMA_PROBES}" "test 0,1\ntest 1,2,\n")

set(BAD_RANGE_PROBES "${WORK_DIR}/bad_range.probes")
file(WRITE "${BAD_RANGE_PROBES}" "test 0,1\ntest 0,99\n")

# --- Usage errors: exit 2 -------------------------------------------------

run(no_args 2 "usage:")
run(one_arg 2 "usage:" "${GOOD_GRAPH}")
run(unknown_flag 2 "usage:" "${GOOD_GRAPH}" "(x, y) := E(x, y)" --frobnicate)
run(bad_limit 2 "expects an integer" "${GOOD_GRAPH}" "(x, y) := E(x, y)"
    --limit 1x0)
run(negative_limit 2 "expects an integer" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --limit -5)
run(bad_budget_ms 2 "expects an integer" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --budget-ms zero)
run(zero_budget_ms 2 "expects an integer" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --budget-ms 0)
run(bad_edge_work 2 "expects an integer" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --max-edge-work 10kk)
run(bad_avg_degree 2 "expects a number" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --max-avg-degree dense)
run(bad_color_binding 2 "expects an integer" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --color Blue=x)
run(bad_answer_threads 2 "expects an integer" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --answer-threads 0)

# --- Data errors: exit 1, one-line stderr ---------------------------------

run(missing_graph 1 "error:" "${WORK_DIR}/nonexistent.g" "(x, y) := E(x, y)")
run(edge_out_of_range 1 "out of range" "${BAD_RANGE_GRAPH}"
    "(x, y) := E(x, y)")
run(huge_header 1 "error:" "${HUGE_HEADER_GRAPH}" "(x, y) := E(x, y)")
run(truncated_record 1 "expected" "${TRUNCATED_GRAPH}" "(x, y) := E(x, y)")
run(bad_query 1 "query error" "${GOOD_GRAPH}" "(x, y) := E(x, &&& y)")
run(query_color_out_of_range 1 "out of range" "${GOOD_GRAPH}"
    "(x, y) := C7(x) & E(x, y)")
run(bad_test_tuple 1 "bad --test" "${GOOD_GRAPH}" "(x, y) := E(x, y)"
    --test 1,2,3)
run(test_tuple_out_of_range 1 "outside the graph" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --test 1,99)
run(next_tuple_out_of_range 1 "outside the graph" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --next -3,0)
run(missing_probe_file 1 "cannot read probe file" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --probe-file "${WORK_DIR}/nonexistent.probes")
run(probe_file_bad_line 1 "comma-separated" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --probe-file "${BAD_PARSE_PROBES}")
if(LAST_STDOUT MATCHES "test \\(0, 1\\)")
  message(SEND_ERROR
    "partial batch served before parse error:\n${LAST_STDOUT}")
endif()
run(probe_file_out_of_range 1 "outside the graph" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --probe-file "${BAD_RANGE_PROBES}")
run(probe_file_trailing_comma 1 "comma-separated" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --probe-file "${TRAILING_COMMA_PROBES}")
# Bad batch input is all-or-nothing: the good first line of the malformed
# file must not have been answered before the parse error.
if(LAST_STDOUT MATCHES "test \\(0, 1\\)")
  message(SEND_ERROR
    "partial batch served before parse error:\n${LAST_STDOUT}")
endif()
run(test_trailing_comma 1 "bad --test" "${GOOD_GRAPH}" "(x, y) := E(x, y)"
    --test 1,2,)
run(metrics_json_unwritable 1 "cannot write metrics file" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --metrics-json "${WORK_DIR}/no_such_dir/m.json")
run(trace_json_unwritable 1 "cannot write trace file" "${GOOD_GRAPH}"
    "(x, y) := E(x, y)" --trace-json "${WORK_DIR}/no_such_dir/t.json")

# --- Success paths: exit 0 ------------------------------------------------

run(plain_success 0 "" "${GOOD_GRAPH}" "(x, y) := E(x, y)" --limit 3)
if(NOT LAST_STDOUT MATCHES "\\(0, 1\\)")
  message(SEND_ERROR "plain_success: expected solution (0, 1); got:\n${LAST_STDOUT}")
endif()

# Deterministic degraded run: a one-unit edge-work cap trips at the first
# preprocessing stage; the binary must still exit 0 and produce correct
# solutions through the lazy baseline.
run(degraded_edge_work 0 "" "${CLIQUE_GRAPH}" "(x, y) := E(x, y)"
    --max-edge-work 1 --limit 3)
if(NOT LAST_STDOUT MATCHES "degraded: stage engine/")
  message(SEND_ERROR "degraded_edge_work: no degraded banner:\n${LAST_STDOUT}")
endif()
if(NOT LAST_STDOUT MATCHES "\\(0, 1\\)")
  message(SEND_ERROR "degraded_edge_work: wrong solutions:\n${LAST_STDOUT}")
endif()

# Density guard: same degraded contract, attributed to the density stage.
run(degraded_density 0 "" "${CLIQUE_GRAPH}" "(x, y) := E(x, y)"
    --max-avg-degree 5 --limit 3)
if(NOT LAST_STDOUT MATCHES "degraded: stage engine/density")
  message(SEND_ERROR "degraded_density: no density banner:\n${LAST_STDOUT}")
endif()

# Wall-clock budget on the clique: must exit 0 promptly with correct
# output whether or not the deadline tripped before completion.
run(budget_ms_success 0 "" "${CLIQUE_GRAPH}" "(x, y) := E(x, y)"
    --budget-ms 50 --limit 3)
if(NOT LAST_STDOUT MATCHES "\\(0, 1\\)")
  message(SEND_ERROR "budget_ms_success: wrong solutions:\n${LAST_STDOUT}")
endif()

# Batched probe serving: answers come back in input order, one line per
# probe, with the summary trailer; --answer-threads must not change them.
foreach(threads 1 2)
  run(probe_file_threads_${threads} 0 "" "${GOOD_GRAPH}" "(x, y) := E(x, y)"
      --probe-file "${GOOD_PROBES}" --answer-threads ${threads})
  if(NOT LAST_STDOUT MATCHES
     "test \\(0, 1\\) = solution.*next \\(0, 0\\) = \\(0, 1\\).*test \\(1, 2\\) = solution.*next \\(3, 3\\) = none.*served 4 probes")
    message(SEND_ERROR
      "probe_file_threads_${threads}: wrong probe answers:\n${LAST_STDOUT}")
  endif()
endforeach()

# CRLF line endings and a final line without trailing newline must serve
# the same four probes as the POSIX-formatted file.
run(probe_file_crlf 0 "" "${GOOD_GRAPH}" "(x, y) := E(x, y)"
    --probe-file "${CRLF_PROBES}")
if(NOT LAST_STDOUT MATCHES
   "test \\(0, 1\\) = solution.*next \\(0, 0\\) = \\(0, 1\\).*test \\(1, 2\\) = solution.*next \\(3, 3\\) = none.*served 4 probes")
  message(SEND_ERROR "probe_file_crlf: wrong probe answers:\n${LAST_STDOUT}")
endif()

# An empty probe file is a valid (if pointless) batch of zero probes.
run(probe_file_empty 0 "" "${GOOD_GRAPH}" "(x, y) := E(x, y)"
    --probe-file "${EMPTY_PROBES}")
if(NOT LAST_STDOUT MATCHES "served 0 probes")
  message(SEND_ERROR "probe_file_empty: expected zero-probe summary:\n${LAST_STDOUT}")
endif()

# Observability artifacts: both exports must be written, parse as JSON,
# and carry their schema markers plus answer-path coverage. The path graph
# takes the LNF engine, and the far query has a Case I position, so the
# trace holds every prepare stage as a span (the cover included).
set(METRICS_JSON "${WORK_DIR}/metrics.json")
set(TRACE_JSON "${WORK_DIR}/trace.json")
run(obs_export 0 "" "${PATH_GRAPH}" "(x, y) := dist(x, y) > 1"
    --probe-file "${GOOD_PROBES}"
    --metrics-json "${METRICS_JSON}" --trace-json "${TRACE_JSON}")
foreach(artifact "${METRICS_JSON}" "${TRACE_JSON}")
  if(NOT EXISTS "${artifact}")
    message(SEND_ERROR "obs_export: missing artifact ${artifact}")
  endif()
endforeach()
file(READ "${METRICS_JSON}" metrics_doc)
string(JSON metrics_schema ERROR_VARIABLE json_err GET "${metrics_doc}" schema)
if(NOT json_err STREQUAL "NOTFOUND" OR
   NOT metrics_schema STREQUAL "nwd-metrics/1")
  message(SEND_ERROR "obs_export: bad metrics JSON (${json_err}):\n${metrics_doc}")
endif()
string(JSON probes_served GET "${metrics_doc}" counters answer.probes_served)
if(NOT probes_served STREQUAL "4")
  message(SEND_ERROR
    "obs_export: expected 4 drained probes, got '${probes_served}'")
endif()
file(READ "${TRACE_JSON}" trace_doc)
string(JSON trace_events ERROR_VARIABLE json_err GET "${trace_doc}" traceEvents)
if(NOT json_err STREQUAL "NOTFOUND")
  message(SEND_ERROR "obs_export: bad trace JSON (${json_err}):\n${trace_doc}")
endif()
foreach(stage prepare cover)
  if(NOT trace_doc MATCHES "\"name\":\"engine/${stage}\",\"ph\":\"X\"")
    message(SEND_ERROR
      "obs_export: trace lacks the engine/${stage} span:\n${trace_doc}")
  endif()
endforeach()
string(JSON overwritten ERROR_VARIABLE json_err
  GET "${trace_doc}" otherData overwritten)
if(NOT json_err STREQUAL "NOTFOUND")
  message(SEND_ERROR
    "obs_export: trace lacks otherData.overwritten (${json_err})")
endif()

# --- SIGPIPE robustness ---------------------------------------------------
# Piping a large enumeration into a consumer that exits early (head -n 2)
# closes the pipe mid-stream. The writer must treat that as a clean end of
# output and exit 0 — not die of SIGPIPE (exit 141) or report an error.
# The 100-vertex clique under a one-unit work cap enumerates ~19k lines,
# comfortably past the kernel pipe buffer, so the closed pipe is actually
# observed.
find_program(BASH_PROGRAM bash)
if(BASH_PROGRAM)
  set(BIG_CLIQUE_GRAPH "${WORK_DIR}/clique100.g")
  set(big_clique_lines "graph 100 1\n")
  foreach(u RANGE 0 99)
    foreach(v RANGE 0 99)
      if(u LESS v)
        string(APPEND big_clique_lines "e ${u} ${v}\n")
      endif()
    endforeach()
  endforeach()
  file(WRITE "${BIG_CLIQUE_GRAPH}" "${big_clique_lines}")
  execute_process(
    COMMAND ${BASH_PROGRAM} -c
      "\"$1\" \"$2\" '(x, y) := E(x, y)' --max-edge-work 1 | head -n 2 > /dev/null; exit \${PIPESTATUS[0]}"
      bash ${NWDQ} ${BIG_CLIQUE_GRAPH}
    RESULT_VARIABLE exit_code
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT exit_code STREQUAL "0")
    message(SEND_ERROR
      "sigpipe_head: expected exit 0 when the output pipe closes early, "
      "got '${exit_code}'\nstderr: ${err}")
  endif()
endif()

# --- Compiled-program dump: golden output ---------------------------------
# The bytecode listing is the debugging interface for the query compiler;
# pin it exactly (modulo the timing line and trailing pad spaces) so any
# lowering or peephole change shows up as a reviewable diff here.
run(dump_program 0 "" "${PATH_GRAPH}" "(x, y) := dist(x, y) > 1 & C0(x)"
    --dump-program)
string(REGEX REPLACE "preprocessing: [^\n]*\n" "" dump_out "${LAST_STDOUT}")
string(REGEX REPLACE " +\n" "\n" dump_out "${dump_out}")
set(expected_dump "loaded graph(n=60, m=59, c=2)
query: (x, y) := !(dist(x, y) <= 1) & C0(x)
compiled query: arity=2 radius=1 ball_radius=1
cases: 1 live of 1 (0 dead), folds: color=0 dist=0 dedup=0, specialized finds=2
test program (4 insns, 1 memo regs):
  [  0] br_color  pos=0 color=0 expect=1 -> 1 else 3
  [  1] br_dist   pos=0,1 bound=1 expect=0 reg=0 -> 2 else 3
  [  2] accept
  [  3] reject
next program (7 insns):
  case 0 entry=0
  [  0] init      pos=0 -> 1
  [  1] find_ext0 pos=0 ext=0 -> 2 else 6
  [  2] init      pos=1 -> 3
  [  3] find_skip pos=1 list=1 checks=[0+1) -> 5 else 4
  [  4] bump      pos=0 -> 1
  [  5] found
  [  6] fail
checks (1):
  [  0] dist other=0 bound=1 expect=0
")
if(NOT dump_out STREQUAL expected_dump)
  message(SEND_ERROR
    "dump_program: bytecode listing drifted from the golden output.\n"
    "expected:\n${expected_dump}\ngot:\n${dump_out}")
endif()

# The metrics export carries the compilation plane's counters: one program
# compiled for this engine build, and live per-op execution counts.
set(COMPILE_METRICS_JSON "${WORK_DIR}/compile_metrics.json")
run(compile_metrics 0 "" "${PATH_GRAPH}" "(x, y) := dist(x, y) > 1 & C0(x)"
    --limit 5 --metrics-json "${COMPILE_METRICS_JSON}")
file(READ "${COMPILE_METRICS_JSON}" compile_metrics_doc)
string(JSON compile_programs ERROR_VARIABLE json_err
       GET "${compile_metrics_doc}" counters compile.programs)
if(NOT json_err STREQUAL "NOTFOUND" OR NOT compile_programs STREQUAL "1")
  message(SEND_ERROR
    "compile_metrics: expected counters.compile.programs = 1 "
    "(${json_err}), got '${compile_programs}'")
endif()
string(JSON compile_probes ERROR_VARIABLE json_err
       GET "${compile_metrics_doc}" counters compile.exec.probes)
if(NOT json_err STREQUAL "NOTFOUND" OR compile_probes LESS_EQUAL 0)
  message(SEND_ERROR
    "compile_metrics: expected counters.compile.exec.probes > 0 "
    "(${json_err}), got '${compile_probes}'")
endif()

# A query whose only case folds dead (C0 never holds on the uncolored
# clique) still compiles; the dump must say so rather than crash.
run(dump_program_dead 0 "" "${CLIQUE_GRAPH}" "(x, y) := dist(x, y) > 1 & C0(x)"
    --dump-program)
if(NOT LAST_STDOUT MATCHES "1 dead" OR
   NOT LAST_STDOUT MATCHES "entry=-1 \\(dead\\)")
  message(SEND_ERROR "dump_program_dead: expected a dead case:\n${LAST_STDOUT}")
endif()

# The naive fallback engine has no LNF, hence no program to dump.
run(dump_program_fallback 0 "" "${GOOD_GRAPH}" "(x, y) := E(x, y)"
    --dump-program)
if(NOT LAST_STDOUT MATCHES "no compiled program \\(fallback engine has no LNF\\)")
  message(SEND_ERROR "dump_program_fallback: wrong output:\n${LAST_STDOUT}")
endif()

# --test / --next still work on a degraded engine.
run(degraded_test 0 "" "${CLIQUE_GRAPH}" "(x, y) := E(x, y)"
    --max-edge-work 1 --test 3,7)
if(NOT LAST_STDOUT MATCHES "= solution")
  message(SEND_ERROR "degraded_test: wrong --test output:\n${LAST_STDOUT}")
endif()
run(degraded_next 0 "" "${CLIQUE_GRAPH}" "(x, y) := E(x, y)"
    --max-edge-work 1 --next 59,59)
if(NOT LAST_STDOUT MATCHES "= none")
  message(SEND_ERROR "degraded_next: wrong --next output:\n${LAST_STDOUT}")
endif()
