# One CLI contract case: run a command, then check its exit code and
# (optionally) that its combined stdout+stderr matches a regex.
#
#   cmake -DEXIT=<code> [-DREGEX=<regex>] -DWORKDIR=<dir>
#         -P expect.cmake -- <program> [args...]
#
# Arguments may not contain ';' (CMake's list separator).

set(cmd)
set(collect FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect.cmake: no command after --")
endif()
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(COMMAND ${cmd}
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(REPLACE ";" " " shown "${cmd}")
if(NOT "${rc}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "`${shown}` exited ${rc}, expected ${EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED REGEX AND NOT "${out}${err}" MATCHES "${REGEX}")
  message(FATAL_ERROR "`${shown}` output does not match '${REGEX}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
