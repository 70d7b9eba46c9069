#!/bin/sh
# Ingests the 40-week SDSC seed-7 log in 64 KiB segments, flips the
# byte at offset 5000 of the first sealed segment, then checks that
# `dmlfp run --repo` refuses the repository with a diagnostic and exit
# status 1, on the single-threaded and the sharded replay alike,
# instead of aborting.  The damage passes open and is met mid-scan, as
# a CRC failure.
#
#   run_damaged_repo.sh DMLFP WORKDIR
dmlfp=$1
log=$2/sdsc40.txt
repo=$2/damaged.repo
rm -rf "$repo"
"$dmlfp" generate --machine sdsc --weeks 40 --seed 7 --out "$log" \
  >/dev/null || exit 1
"$dmlfp" ingest --log "$log" --out "$repo" --segment-bytes 65536 \
  >/dev/null || exit 1
segment=$repo/seg-000000.log
byte=$(od -An -tu1 -j5000 -N1 "$segment" | tr -d ' ')
if [ -z "$byte" ]; then
  echo "run_damaged_repo: $segment is shorter than 5001 bytes"
  exit 1
fi
printf "\\$(printf %o $((byte ^ 255)))" |
  dd of="$segment" bs=1 seek=5000 conv=notrunc 2>/dev/null
for threads in 1 2; do
  out=$("$dmlfp" run --repo "$repo" --training-weeks 12 --retrain-weeks 4 \
    --threads "$threads" 2>&1)
  status=$?
  printf '%s\n' "$out" | tail -n 2
  if [ "$status" -ne 1 ]; then
    echo "run_damaged_repo: --threads $threads exit status $status, expected 1"
    exit 1
  fi
  case $out in
    *"dmlfp: storage: CRC failure"*) ;;
    *) echo "run_damaged_repo: --threads $threads printed no CRC diagnostic"
       exit 1 ;;
  esac
done
