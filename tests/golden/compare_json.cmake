# Golden-output check: run BIN with `--json OUT` and require OUT to equal
# GOLDEN byte for byte. The benches print every value with %.17g, so equal
# text means every value is exactly equal.
#
# Usage: cmake -DBIN=<bench> -DGOLDEN=<file> -DOUT=<file> -P compare_json.cmake
foreach(var BIN GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_json.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${BIN}" --json "${OUT}"
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${status}")
endif()

file(STRINGS "${GOLDEN}" golden_lines)
file(STRINGS "${OUT}" out_lines)
if(NOT golden_lines STREQUAL out_lines)
  list(LENGTH golden_lines golden_count)
  list(LENGTH out_lines out_count)
  set(report "")
  math(EXPR last "${golden_count} - 1")
  foreach(i RANGE ${last})
    list(GET golden_lines ${i} want)
    set(got "<missing>")
    if(i LESS out_count)
      list(GET out_lines ${i} got)
    endif()
    if(NOT want STREQUAL got)
      string(APPEND report "\n  line ${i}\n    golden: ${want}\n    got:    ${got}")
    endif()
  endforeach()
  if(NOT golden_count EQUAL out_count)
    string(APPEND report "\n  ${out_count} lines, golden has ${golden_count}")
  endif()
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}:${report}\n"
          "A change that moves these values must update the golden file and "
          "EXPERIMENTS.md together.")
endif()
