# Golden-output test of `pullmon_cli`: runs a fixed set of commands on
# tiny seeded instances and compares each one's exit code, stdout and
# CSV file with the expected files under tools/golden/. Wall-clock
# columns are masked before the comparison: the `runtime(ms)` cell of
# the logical run table and every CSV column named `*runtime_ms`.
#
#   cmake -DCLI=<path to pullmon_cli> -DGOLDEN=<tools/golden>
#         [-DRECORD=ON] -P tools/cli_golden.cmake
#
# RECORD=ON rewrites the expected files from the given binary instead
# of comparing. The script writes its CSVs and checkpoint directories
# (all named cli_golden_*) into the current directory.

if(NOT CLI OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DGOLDEN=... -P cli_golden.cmake")
endif()

set(small --profiles=10 --resources=20 --chronons=80 --lambda=5 --reps=2)
set(durable --churn --churn-rate=1 --profiles=15 --resources=20
            --chronons=60 --lambda=5 --policy=mrsf --checkpoint-every=10)
file(REMOVE_RECURSE cli_golden_ckpt cli_golden_ckpt_csv cli_golden_crash)

# Masks the runtime(ms) cell of table rows shaped like the logical run
# table (label, GC and ci95 with 4 decimals, runtime with 2).
function(mask_table_runtime text out_var)
  string(REPLACE "\n" ";" lines "${text}")
  set(masked "")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE
      "^([^ ]+ +[0-9]+\\.[0-9][0-9][0-9][0-9] +[0-9]+\\.[0-9][0-9][0-9][0-9] +)[0-9]+\\.[0-9][0-9] *"
      "\\1<ms> " line "${line}")
    string(APPEND masked "${line}\n")
  endforeach()
  set(${out_var} "${masked}" PARENT_SCOPE)
endfunction()

# Masks every CSV field whose column header ends in runtime_ms.
function(mask_csv_runtime text out_var)
  string(REPLACE "\n" ";" lines "${text}")
  set(masked "")
  set(runtime_columns "")
  set(row 0)
  foreach(line IN LISTS lines)
    if(line STREQUAL "")
      continue()
    endif()
    string(REPLACE "," ";" fields "${line}")
    if(row EQUAL 0)
      set(index 0)
      foreach(field IN LISTS fields)
        if(field MATCHES "runtime_ms$")
          list(APPEND runtime_columns ${index})
        endif()
        math(EXPR index "${index} + 1")
      endforeach()
    else()
      foreach(index IN LISTS runtime_columns)
        list(REMOVE_AT fields ${index})
        list(INSERT fields ${index} "<ms>")
      endforeach()
    endif()
    string(REPLACE ";" "," line "${fields}")
    string(APPEND masked "${line}\n")
    math(EXPR row "${row} + 1")
  endforeach()
  set(${out_var} "${masked}" PARENT_SCOPE)
endfunction()

# Compares `actual` with the expected file GOLDEN/<file> (or records it).
function(check_golden file actual)
  set(expected_path "${GOLDEN}/${file}")
  if(RECORD)
    file(WRITE "${expected_path}" "${actual}")
    return()
  endif()
  if(NOT EXISTS "${expected_path}")
    message(SEND_ERROR "missing expected file ${expected_path}")
  else()
    file(READ "${expected_path}" expected)
    if(NOT actual STREQUAL expected)
      message(SEND_ERROR "${file} differs from the expected output.\n"
        "--- expected ---\n${expected}--- actual ---\n${actual}")
    endif()
  endif()
endfunction()

# golden_case(<name> <expected exit> [MASK_TABLE] [CSV] [SAME_AS <case>]
#             ARGS <args...>)
# runs `pullmon_cli <args...>`; with CSV it appends
# --csv=cli_golden_<name>.csv and also checks that file. SAME_AS checks
# the output against <case>'s expected files instead of its own (the
# written CSV's name aside) and records nothing.
function(golden_case name expected_exit)
  cmake_parse_arguments(PARSE_ARGV 2 opt "MASK_TABLE;CSV" "SAME_AS" "ARGS")
  set(args ${opt_ARGS})
  set(expected_name "${name}")
  if(opt_SAME_AS)
    if(RECORD)
      return()
    endif()
    set(expected_name "${opt_SAME_AS}")
  endif()
  set(csv_path "cli_golden_${name}.csv")
  if(opt_CSV)
    file(REMOVE "${csv_path}")
    list(APPEND args "--csv=${csv_path}")
  endif()
  execute_process(COMMAND ${CLI} ${args}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status STREQUAL "${expected_exit}")
    message(SEND_ERROR "${name}: exit ${status}, expected ${expected_exit}\n"
      "${err}")
  endif()
  if(opt_MASK_TABLE)
    mask_table_runtime("${out}" out)
  endif()
  string(REPLACE "cli_golden_${name}.csv" "cli_golden_${expected_name}.csv"
    out "${out}")
  check_golden("${expected_name}.out" "${out}")
  if(opt_CSV)
    file(READ "${csv_path}" csv)
    mask_csv_runtime("${csv}" csv)
    check_golden("${expected_name}.csv" "${csv}")
  endif()
endfunction()

golden_case(run_logical 0 MASK_TABLE CSV ARGS
  run ${small} --policy=mrsf,s-edf --mode=both --offline)
set(proxy run --proxy ${small} --policy=mrsf,health:mrsf --mode=p --budget=3
  --fault-timeout=0.05 --fault-server-error=0.05 --fault-truncate=0.05
  --fault-corrupt=0.05 --fault-etag-storm=0.1 --fault-latency=0.2
  --outage-enter=0.02 --outage-exit=0.2 --retries=2 --breaker
  --breaker-threshold=2 --parse-cache)
golden_case(run_proxy 0 CSV ARGS ${proxy})
# --executor=reference runs the proxy's monitor on the rebuild oracle,
# which decides every probe as the incremental index does.
golden_case(run_proxy_reference 0 CSV SAME_AS run_proxy ARGS
  ${proxy} --executor=reference)
golden_case(run_churn 0 CSV ARGS
  run --churn --churn-rate=2 --profiles=20 --resources=20 --chronons=80
  --lambda=5 --reps=2 --policy=mrsf,s-edf --mode=both
  --fault-timeout=0.05 --retries=1)
golden_case(run_durable 0 ARGS
  run ${durable} --checkpoint-dir=cli_golden_ckpt)
golden_case(run_durable_csv 0 CSV ARGS
  run ${durable} --checkpoint-dir=cli_golden_ckpt_csv)
golden_case(run_durable_crash 3 ARGS
  run ${durable} --checkpoint-dir=cli_golden_crash --crash-at=30:100)
golden_case(run_durable_recover 0 ARGS
  run ${durable} --checkpoint-dir=cli_golden_crash --recover)
golden_case(sweep_budget 0 CSV ARGS
  sweep --param=budget --values=1,2 ${small} --policy=mrsf,s-edf)
golden_case(sweep_lambda_markdown 0 CSV ARGS
  sweep --param=lambda --values=2,5.5 ${small} --policy=mrsf --markdown)
golden_case(analyze 0 ARGS analyze --profiles=20 --resources=30
  --chronons=100 --lambda=5 --dataset=auction)
foreach(command run sweep gen-trace gen-feeds analyze)
  golden_case(help_${command} 0 ARGS ${command} --help)
endforeach()
