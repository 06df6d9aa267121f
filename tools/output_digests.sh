#!/bin/sh
# Run the seed-5 desk pipeline against one source tree and print the sha256
# of every file it writes, sorted by path.  Two trees whose listings are
# equal produce byte-identical outputs.  A command that fails or writes to
# stderr, such as a numpy warning, fails the script.
#
# Usage: tools/output_digests.sh SRC_DIR WORK_DIR
#   SRC_DIR   directory holding the eegdiff package (a checkout's src/)
#   WORK_DIR  new or empty directory for the config and the run outputs
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC_DIR WORK_DIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
work=$(cd "$2" && pwd)
if [ -n "$(ls -A "$work")" ]; then
    echo "$0: $work is not empty" >&2
    exit 2
fi

# One BLAS thread: GEMM rounding, and so every output byte, depends on it.
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
printf '{"epochs_stage1": 1, "epochs_stage2": 2}\n' > "$work/config.json"

run() {
    status=0
    PYTHONPATH="$src" python3 -m eegdiff.cli "$@" \
        --config "$work/config.json" --seed 5 --out "$work/out" > /dev/null 2> "$work/stderr" || status=$?
    if [ "$status" -ne 0 ] || [ -s "$work/stderr" ]; then
        cat "$work/stderr" >&2
        echo "$0: '$*' exited $status or wrote to stderr" >&2
        exit 1
    fi
}

run gen-data
run train-stage1
run train-stage2
run sample --scale 7.5
run sample --scale 0
run sample --scale 1 --num 1
run sample --scale 4 --steps 7 --num 3
run eval-gen --scale 7.5
run cfg-sweep --scales 2,3 --num 8
run eval-retrieval
run grad-check --seeds 3

cd "$work/out"
find . -type f -print0 | LC_ALL=C sort -z | xargs -0 sha256sum
