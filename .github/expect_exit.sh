# Sourced by the workflow's command-line checks.
#
# expect_exit CODE [PATTERN] -- COMMAND...
# Runs COMMAND, which must exit with CODE. Its stderr must hold PATTERN
# (a grep pattern) when one is given, and on exit 3, a data error, it must
# be one JSON document. On a miss, prints what came and returns 1.
expect_exit() {
  local want=$1 pattern= code=0 err
  shift
  if [ "$1" != -- ]; then pattern=$1; shift; fi
  if [ "$1" != -- ]; then echo "expect_exit: missing --" >&2; return 2; fi
  shift
  err=$(mktemp)
  "$@" 2> "$err" || code=$?
  if [ "$code" -ne "$want" ] \
      || { [ -n "$pattern" ] && ! grep -q -- "$pattern" "$err"; } \
      || { [ "$want" -eq 3 ] && ! python -c "import json, sys; json.load(open(sys.argv[1]))" "$err"; }; then
    echo "exit $code from: $*" >&2
    echo "expected exit $want${pattern:+ with '$pattern' on stderr} (on exit 3, one JSON document); stderr:" >&2
    cat "$err" >&2
    rm -f "$err"
    return 1
  fi
  rm -f "$err"
}
