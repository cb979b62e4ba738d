# `campaign_cli merge` round trip: two shard runs merged back must
# export the same JSONL bytes as one unsharded run.
#
#   cmake -DCLI=<campaign_cli> -DWORKDIR=<dir> -P merge.cmake

set(grid --variants spectre-v1,meltdown --perm-lat 10,30 --serial)
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(run)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " shown "${ARGN}")
    message(FATAL_ERROR "`${shown}` exited ${rc}\n${out}\n${err}")
  endif()
endfunction()

run("${CLI}" ${grid} --shard 0/2 --shard-report s0.json)
run("${CLI}" ${grid} --shard 1/2 --shard-report s1.json)
run("${CLI}" merge s0.json s1.json --jsonl merged.jsonl)
run("${CLI}" ${grid} --jsonl whole.jsonl)
run("${CMAKE_COMMAND}" -E compare_files merged.jsonl whole.jsonl)
