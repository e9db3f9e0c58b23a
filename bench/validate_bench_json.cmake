# Runs one artifact-emitting binary and validates the emitted JSON, as a
# CTest script. Two modes:
#
#   (default)      cmake -DBENCH=<bench-binary> -DWORK_DIR=<scratch>
#                        -DBENCH_ARGS=<;-list> -P validate_bench_json.cmake
#     runs `bench ... --json FILE` and validates the nwd-bench-json/1
#     schema of bench_json.h.
#
#   -DMODE=attest  runs `nwd-attest ... --out FILE` (BENCH points at the
#     nwd-attest binary, BENCH_ARGS at its subcommand/flags) and validates
#     the nwd-attest-json/1 report: schema/mode, a boolean `pass` that
#     must be true (this script is the guard), and well-formed claims.
#
# Contract under test, both modes:
#   * the binary exits 0 and leaves a parseable JSON document,
#   * required keys are present and correctly typed,
#   * every number is finite (no nan/inf ever reaches the artifact).
# Malformed output fails the test — the artifact is only useful if CI can
# trust it blindly.

if(NOT DEFINED BENCH OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "usage: cmake -DBENCH=... -DWORK_DIR=... [-DBENCH_ARGS=...] "
    "[-DMODE=attest] -P validate_bench_json.cmake")
endif()
if(NOT DEFINED MODE)
  set(MODE bench)
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(JSON_FILE "${WORK_DIR}/bench.json")
file(REMOVE "${JSON_FILE}")

if(MODE STREQUAL "attest")
  set(out_flag --out)
else()
  set(out_flag --json)
endif()
execute_process(
  COMMAND ${BENCH} ${BENCH_ARGS} ${out_flag} "${JSON_FILE}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 240)
if(NOT exit_code STREQUAL "0")
  # Keep the evidence: nwd-attest reports a failed claim by exiting 1 with
  # its summary on stdout and the fitted report in the artifact.
  set(report "(none written)")
  if(EXISTS "${JSON_FILE}")
    file(READ "${JSON_FILE}" report)
  endif()
  message(FATAL_ERROR "bench exited ${exit_code}\nstdout: ${out}\n"
    "stderr: ${err}\nreport ${JSON_FILE}: ${report}")
endif()
if(NOT EXISTS "${JSON_FILE}")
  message(FATAL_ERROR "bench did not write ${JSON_FILE}")
endif()
file(READ "${JSON_FILE}" doc)

# Non-finite numbers are not JSON; string(JSON) below would accept bare
# words inside numbers contexts inconsistently across generators, so scan
# the raw text first.
string(TOLOWER "${doc}" doc_lower)
if(doc_lower MATCHES "nan|infinity|[^a-z]inf[^a-z]")
  message(FATAL_ERROR "artifact contains a non-finite number:\n${doc}")
endif()

string(JSON schema ERROR_VARIABLE json_err GET "${doc}" schema)
if(NOT json_err STREQUAL "NOTFOUND")
  message(FATAL_ERROR "unparseable JSON (${json_err}):\n${doc}")
endif()

if(MODE STREQUAL "attest")
  if(NOT schema STREQUAL "nwd-attest-json/1")
    message(FATAL_ERROR "wrong schema '${schema}'")
  endif()
  string(JSON report_mode GET "${doc}" mode)
  if(NOT report_mode STREQUAL "attest")
    message(FATAL_ERROR "wrong mode '${report_mode}'")
  endif()
  string(JSON pass_type TYPE "${doc}" pass)
  if(NOT pass_type STREQUAL "BOOLEAN")
    message(FATAL_ERROR "report `pass` is ${pass_type}, not a boolean")
  endif()
  string(JSON report_pass GET "${doc}" pass)
  if(NOT report_pass STREQUAL "ON")
    message(FATAL_ERROR "attestation failed (pass=false):\n${doc}")
  endif()
  string(JSON claim_count LENGTH "${doc}" claims)
  if(claim_count LESS 1)
    message(FATAL_ERROR "no claims in the report:\n${doc}")
  endif()
  math(EXPR last_claim "${claim_count} - 1")
  set(gated_fits 0)
  foreach(i RANGE 0 ${last_claim})
    foreach(key claim graph_class metric status slope bound)
      string(JSON value ERROR_VARIABLE json_err GET "${doc}" claims ${i} ${key})
      if(NOT json_err STREQUAL "NOTFOUND")
        message(FATAL_ERROR "claim ${i} missing key '${key}':\n${doc}")
      endif()
    endforeach()
    string(JSON status GET "${doc}" claims ${i} status)
    if(NOT status MATCHES "^(pass|fail|skipped|info)$")
      message(FATAL_ERROR "claim ${i} has bad status '${status}'")
    endif()
    if(status STREQUAL "pass")
      math(EXPR gated_fits "${gated_fits} + 1")
    endif()
  endforeach()
  if(gated_fits LESS 1)
    message(FATAL_ERROR "no gated claim was actually fitted:\n${doc}")
  endif()
  message(STATUS
    "validated attest report: ${claim_count} claims, ${gated_fits} passing "
    "fits in ${JSON_FILE}")
  return()
endif()
if(NOT schema STREQUAL "nwd-bench-json/1")
  message(FATAL_ERROR "wrong schema '${schema}'")
endif()
string(JSON benchmark GET "${doc}" benchmark)
if(benchmark STREQUAL "")
  message(FATAL_ERROR "empty benchmark name")
endif()
string(JSON run_count LENGTH "${doc}" runs)
if(run_count LESS 1)
  message(FATAL_ERROR "no runs captured:\n${doc}")
endif()

math(EXPR last_run "${run_count} - 1")
foreach(i RANGE 0 ${last_run})
  foreach(key name graph_class n iterations real_ms cpu_ms counters)
    string(JSON value ERROR_VARIABLE json_err GET "${doc}" runs ${i} ${key})
    if(NOT json_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR "run ${i} missing key '${key}':\n${doc}")
    endif()
  endforeach()
  string(JSON name GET "${doc}" runs ${i} name)
  if(name STREQUAL "")
    message(FATAL_ERROR "run ${i} has an empty name")
  endif()
  foreach(key iterations real_ms cpu_ms)
    string(JSON value GET "${doc}" runs ${i} ${key})
    if(NOT value MATCHES "^-?[0-9]+(\\.[0-9]+)?([eE][-+]?[0-9]+)?$")
      message(FATAL_ERROR "run ${i} ${key}='${value}' is not a number")
    endif()
  endforeach()
endforeach()

message(STATUS
  "validated ${run_count} runs of '${benchmark}' in ${JSON_FILE}")
