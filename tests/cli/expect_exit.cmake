# Runs the command after "--" and fails unless it exits with status EXPECT
# and prints "error: <message>" on stderr.
#
#   cmake -DEXPECT=2 -P expect_exit.cmake -- mrinvert_cli --input bad.txt
set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status EQUAL EXPECT)
  message(FATAL_ERROR "exit status ${status}, expected ${EXPECT}\n${stderr}")
endif()
if(NOT stderr MATCHES "error: ")
  message(FATAL_ERROR "no 'error: <message>' on stderr:\n${stderr}")
endif()
message(STATUS "exit ${status}: ${stderr}")
