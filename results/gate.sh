#!/usr/bin/env sh
# The results gate: every experiment id of `rbcast-bench --list` and
# every example must exit 0 and print exactly its golden under results/
# (stdout is results only; timing goes to stderr).
#
#   results/gate.sh               check (run by ci.sh and the workflow)
#   results/gate.sh --regenerate  rewrite the goldens from the current code
#
# Ids with a results/smoke/<id>.txt are too slow to gate at full size
# (minutes): the check runs them at --smoke only; --regenerate rewrites
# both files. scale_bench has no golden — its output is BENCH_scale.json
# and what it prints is wall time.
set -eu
cd "$(dirname "$0")/.."

regenerate=false
case "${1:-}" in
    "") ;;
    --regenerate) regenerate=true ;;
    *) echo "usage: results/gate.sh [--regenerate]" >&2; exit 2 ;;
esac

mkdir -p target
out=target/results_gate.out
err=target/results_gate.err

# golden FILE CMD...: CMD must exit 0 and print FILE byte for byte.
golden() {
    file=$1; shift
    "$@" > "$out" 2> "$err" \
        || { cat "$out" "$err"; echo "results gate: '$*' failed"; exit 1; }
    if $regenerate; then
        mv "$out" "$file"
    else
        cmp -s "$file" "$out" \
            || { diff "$file" "$out" | head -n 4; \
                 echo "results gate: '$*' no longer prints $file (results/README.md says what to do)"; exit 1; }
    fi
}

for id in $(cargo run -q --release -p rbcast-bench -- --list); do
    test "$id" = scale_bench && continue
    if test -f "results/smoke/$id.txt"; then
        golden "results/smoke/$id.txt" cargo run -q --release -p rbcast-bench -- "$id" --smoke
        $regenerate || continue
    fi
    golden "results/$id.txt" cargo run -q --release -p rbcast-bench -- "$id"
done
for file in results/example_*.txt; do
    example=${file#results/example_}
    golden "$file" cargo run -q --release --example "${example%.txt}"
done
rm -f "$out" "$err"
echo "results gate: $($regenerate && echo regenerated || echo passed)"
