# Checks that the README environment-variable table is exactly the knob
# table: the README's "| `PROTEUS_..." rows must equal, in order, what
# `pirc config --markdown` prints. Regenerate the rows with that command
# after adding, removing or re-documenting a knob.
# Invoked by the readme_env_check ctest (see tools/CMakeLists.txt) with
# -DPIRC=... -DREADME=...

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=PROTEUS_TRACE "${PIRC}" config
          --markdown
  RESULT_VARIABLE RunResult
  OUTPUT_VARIABLE Expected
  ERROR_VARIABLE RunErr)
if(NOT RunResult EQUAL 0)
  message(FATAL_ERROR "pirc config --markdown failed (rc=${RunResult}):\n"
    "${RunErr}")
endif()

file(STRINGS "${README}" ReadmeRows REGEX "^\\| `PROTEUS_")
list(JOIN ReadmeRows "\n" Actual)
string(STRIP "${Expected}" Expected)

if(NOT Actual STREQUAL Expected)
  message(FATAL_ERROR
    "README environment table differs from the knob table.\n"
    "--- README rows:\n${Actual}\n"
    "--- pirc config --markdown:\n${Expected}\n"
    "Replace the README rows with the pirc config --markdown output.")
endif()
message(STATUS "README environment table matches the knob table")
