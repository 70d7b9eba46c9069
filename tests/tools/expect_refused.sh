#!/bin/sh
# Runs a command that must refuse a flag value before doing any work: it
# must exit 2, print PATTERN, and never print "listening" (a daemon that
# starts serving is stopped by the timeout and fails the check).
#
#   expect_refused.sh PATTERN COMMAND [ARGS...]
pattern=$1
shift
out=$(timeout 10 "$@" 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -ne 2 ]; then
  echo "expect_refused: exit status $status, expected 2"
  exit 1
fi
case $out in
  *listening*) echo "expect_refused: the daemon started serving"; exit 1 ;;
esac
if ! printf '%s\n' "$out" | grep -q -e "$pattern"; then
  echo "expect_refused: output lacks '$pattern'"
  exit 1
fi
