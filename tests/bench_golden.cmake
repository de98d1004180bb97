# Bench golden check, run by ctest as `cmake -P`:
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DWORK=<dir> -P bench_golden.cmake
#
# Runs the bench at MSCP_THREADS=1 and 4. Each run must exit 0 and
# print exactly the bytes of GOLDEN on stdout. With MSCP_UPDATE_GOLDEN
# set in the environment the single-thread output is written to
# GOLDEN first, so the check regenerates the file and then holds the
# four-thread run to it.

get_filename_component(name "${BENCH}" NAME)
file(MAKE_DIRECTORY "${WORK}")

foreach(threads 1 4)
    set(out "${WORK}/${name}.threads${threads}.txt")
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env MSCP_THREADS=${threads}
                "${BENCH}"
        OUTPUT_FILE "${out}"
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${name} at MSCP_THREADS=${threads} exited ${rc}:\n${err}")
    endif()
    if(threads EQUAL 1 AND DEFINED ENV{MSCP_UPDATE_GOLDEN})
        execute_process(
            COMMAND "${CMAKE_COMMAND}" -E copy "${out}" "${GOLDEN}")
        message(STATUS "regenerated ${GOLDEN}")
    endif()
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files "${out}" "${GOLDEN}"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR
            "${name} at MSCP_THREADS=${threads}: stdout ${out} differs "
            "from ${GOLDEN} (regenerate with MSCP_UPDATE_GOLDEN=1)")
    endif()
endforeach()
