# Writes one `pullmon_cli gen-trace` file per dataset at the same seed
# and fails if the poisson and feeds files are byte-identical (a
# command that ignored --dataset would write the Poisson trace twice).
#
#   cmake -DCLI=<path to pullmon_cli> -P tools/gen_trace_datasets.cmake
foreach(dataset poisson feeds)
  execute_process(
    COMMAND ${CLI} gen-trace --dataset=${dataset} --resources=5
            --chronons=60 --out=cli_test_trace_${dataset}.csv
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "gen-trace --dataset=${dataset} exited ${status}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files cli_test_trace_poisson.csv
          cli_test_trace_feeds.csv
  RESULT_VARIABLE differ)
if(differ EQUAL 0)
  message(FATAL_ERROR
    "gen-trace wrote the same trace for --dataset=poisson and feeds")
endif()
