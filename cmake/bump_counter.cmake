# bump_counter(VAR FIELD): adds 1 to the first `"FIELD":<integer>` member
# in the JSON text held by VAR. The smoke drivers use it to make a copy of
# an artifact that differs from the original by exactly one count.
function(bump_counter var field)
  set(text "${${var}}")
  string(REGEX MATCH "\"${field}\":[0-9]+" member "${text}")
  if(NOT member)
    message(FATAL_ERROR "no \"${field}\" counter to perturb")
  endif()
  string(FIND "${text}" "${member}" at)
  string(LENGTH "${member}" len)
  math(EXPR after_at "${at} + ${len}")
  string(SUBSTRING "${text}" 0 ${at} before)
  string(SUBSTRING "${text}" ${after_at} -1 after)
  string(REGEX REPLACE "^.*:" "" count "${member}")
  math(EXPR count "${count} + 1")
  set(${var} "${before}\"${field}\":${count}${after}" PARENT_SCOPE)
endfunction()
