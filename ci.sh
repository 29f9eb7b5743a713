#!/usr/bin/env sh
# The CI pipeline, defined once: .github/workflows/ci.yml runs this file
# and nothing else. Runs every gate in order and stops at the first
# failure.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (debug-invariants) -- -D warnings"
cargo clippy --workspace --all-targets --features rbcast/debug-invariants -- -D warnings

echo "==> cargo doc -D warnings (public docs link only to public items)"
# Narrowing an item to pub(crate) turns a public doc's link to it into
# rustdoc's private_intra_doc_links warning; the vendored stand-ins are
# not this workspace's documentation.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --exclude proptest --exclude rand --no-deps

echo "==> cargo xtask audit --format json (machine-readable gate)"
audit_json=target/audit_report.json
cargo xtask audit --format json > "$audit_json" \
    || { cat "$audit_json"; echo "audit: findings (see JSON above)"; exit 1; }
# Validate the SARIF-lite shape: schema tag, clean flag, findings array.
grep -q '"schema":"rbcast-audit/1"' "$audit_json" \
    || { cat "$audit_json"; echo "audit: JSON output missing schema tag"; exit 1; }
grep -q '"clean":true' "$audit_json" \
    || { cat "$audit_json"; echo "audit: JSON output not clean"; exit 1; }
grep -q '"findings":\[' "$audit_json" \
    || { cat "$audit_json"; echo "audit: JSON output missing findings array"; exit 1; }
rm -f "$audit_json"

echo "==> cargo xtask audit --rule stale-allow (suppression lifecycle gate)"
cargo xtask audit --rule stale-allow
cargo xtask audit --rule unknown-allow

echo "==> cargo xtask audit --self-test"
cargo xtask audit --self-test

echo "==> one-of-each gate (FNV basis, splitmix, JSON escape, JSON field scanner each defined in one file)"
# rbcast_grid::plumbing is their one home; a second copy must not land
# quietly. xtask (a dependency-free auditor) and benchmark/ (measures
# from outside) keep their own and are not searched. Every JSONL reader
# scans its fields with `json_field` and accepts a line only if its
# writer gives it back (`jsonl::decode_exact`), so a second JSON parser
# has no place.
one_home="crates/grid/src crates/flow/src crates/construct/src crates/sim/src \
    crates/adversary/src crates/protocols/src crates/core/src crates/net/src crates/bench/src src"
for pat in 'cbf2_\?9ce4_\?8422_\?2325' 'fn splitmix' 'fn \(json_escape\|escape_json\)' \
    'fn \(json_field\|json_unescape\|parse_[a-z_]*json\)'; do
    test "$(grep -rli --include='*.rs' "$pat" $one_home | wc -l)" -le 1 \
        || { grep -rni --include='*.rs' "$pat" $one_home; echo "one-of-each: '$pat' has a second home"; exit 1; }
done

echo "==> one-matcher gate (a token rule is a row of data; rules.rs keeps at most five fn check_)"
# Ten audit rules are a banned token sequence plus its home modules, all
# served by Rule::findings; only the five structural rules (float-eq,
# lint-header, hot-loop-alloc, checked-threshold-arith, unused-pub) keep
# a check function. A hand-written token check must not come back quietly.
test "$(awk '/^#\[cfg\(test\)\]/ { exit } /fn check_/ { n++ } END { print n + 0 }' \
    crates/xtask/src/rules.rs)" -le 5 \
    || { grep -n 'fn check_' crates/xtask/src/rules.rs; echo "one-matcher: a sixth check function in rules.rs"; exit 1; }

echo "==> one-lender gate (one Ctx literal under crates/sim/src; NodeDriver only as a #[cfg(test)] reference)"
# Every host builds its Ctx through sim::process::Lent; a second
# hand-assembled literal, or the per-instance driver coming back into
# production code, must not land quietly.
test "$(grep -rl --include='*.rs' 'Ctx {' crates/sim/src | wc -l)" -eq 1 \
    || { grep -rn --include='*.rs' 'Ctx {' crates/sim/src; echo "one-lender: the Ctx literal has a second home"; exit 1; }
find crates/*/src src -name '*.rs' -exec awk '
    FNR == 1 { in_test = 0 }
    /^#\[cfg\(test\)\]/ { in_test = 1 }
    /NodeDriver/ && !in_test { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit bad }' {} + \
    || { echo "one-lender: NodeDriver outside a #[cfg(test)] reference"; exit 1; }

echo "==> one-storage gate (one key-sorted table of (committer, value) records is the one index of §VI evidence)"
# A two-level EvidenceStore keeps each (committer, value) pair that holds
# a chain as one record in a vector sorted by 2·key + value, the committer
# named by its frame key; an ordered (committer, value) map beside it
# must not come back quietly.
! grep -rn --include='*.rs' 'BTreeMap<(NodeId, Value)' crates/protocols/src \
    || { echo "one-storage: a second committer index under crates/protocols/src"; exit 1; }

echo "==> one-arena gate (each run builds its own arena; no process-wide cache of them)"
# Enumerating the TDMA order made an arena cheaper to build than a cache
# lookup, so the interning registry of Weak references and its module
# went; neither may come back quietly.
! grep -rnE --include='*.rs' 'Weak<NeighborTable>|mod arena_cache\b' crates src \
    && test -z "$(find crates src -name 'arena_cache.rs')" \
    || { find crates src -name 'arena_cache.rs'; echo "one-arena: a cache of shared arenas under crates/ or src/"; exit 1; }

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> cargo test --features debug-invariants"
cargo test -q --features debug-invariants

echo "==> engine determinism gate (1/2/8 threads, debug-invariants replay)"
cargo test -q -p rbcast-core --test determinism --features debug-invariants

echo "==> results gate (every experiment and example prints exactly its golden under results/)"
results/gate.sh

echo "==> chaos smoke (injected panics/stalls quarantined, journal well-formed)"
# Seed 4 deterministically kills tasks in both thresh_byz sweeps (the
# chaos draw is a pure function of (seed, task, attempt), so this holds
# at every thread count). The run must still exit 0 — failures are
# quarantined, never fatal — and the checkpoint journal must hold one
# well-formed line per task, including the failed ones.
rm -rf results/journal
journal_header='^\{"fingerprint":"0x[0-9a-f]{16}","tasks":[0-9]+\}$'
chaos_out=target/chaos_smoke.out
RBCAST_CHAOS="panic:0.05,stall:0.02,seed=4" RBCAST_RETRIES=1 \
    cargo run -q -p rbcast-bench -- thresh_byz --smoke > "$chaos_out" 2>&1 \
    || { cat "$chaos_out"; echo "chaos smoke: thresh_byz failed fatally"; exit 1; }
grep -q "^quarantine " "$chaos_out" \
    || { cat "$chaos_out"; echo "chaos smoke: expected quarantined tasks"; exit 1; }
journal=results/journal/thresh_byz_achievability.jsonl
test -s "$journal" \
    || { echo "chaos smoke: missing checkpoint journal $journal"; exit 1; }
grep -q '"status":"failed"' "$journal" \
    || { cat "$journal"; echo "chaos smoke: no failed entry journalled"; exit 1; }
# The first line is the sweep-spec fingerprint header every journal
# opens with (Journal::open, checked on --resume); every other line is
# a task entry.
head -n 1 "$journal" | grep -Eq "$journal_header" \
    || { head -n 1 "$journal"; echo "chaos smoke: journal does not open with its fingerprint header"; exit 1; }
if tail -n +2 "$journal" \
    | grep -v '^{"task":[0-9][0-9]*,"status":"\(ok\|failed\)","attempts":[0-9][0-9]*,' | grep .; then
    echo "chaos smoke: malformed journal line(s) above"; exit 1
fi
rm -rf results/journal
echo "chaos smoke passed"

echo "==> trace smoke (rbcast run --trace emits well-formed JSONL)"
trace_out=target/trace_smoke.jsonl
cargo run -q --bin rbcast -- run --protocol cpa --r 1 --t 2 --trace "$trace_out" > /dev/null
test -s "$trace_out" || { echo "trace smoke: empty trace"; exit 1; }
if grep -v '^{"ev":"[a-z_]*","round":[0-9][0-9]*[,}]' "$trace_out" | grep -q .; then
    echo "trace smoke: malformed JSONL line(s)"; exit 1
fi
rm -f "$trace_out"
echo "trace smoke passed"

echo "==> bad-invocation gate (out-of-range input, argv or environment, is one error: line and exit 2, never a panic)"
# Before the flag cursor carried the ranges (src/cli.rs, `Flags`) each
# of these died in a constructor assert!, printed a NaN rate, or ran a
# silently different experiment.
bad_err=target/bad_invocation.err
bad_ids=target/bad_invocation_ids.txt
bad_headerless=target/bad_invocation_headerless.jsonl
printf '3\n9999\n' > "$bad_ids"
printf '%s\n' '{"task":0,"status":"ok","attempts":1,"correct":1,"wrong":0,"undecided":0,"messages":1}' \
    > "$bad_headerless"
cp "$bad_headerless" "$bad_headerless.orig"
rm -f target/no-such.jsonl
while read -r line; do
    status=0
    # shellcheck disable=SC2086 # splitting the line into arguments is the point
    target/release/rbcast $line > /dev/null 2> "$bad_err" || status=$?
    if test "$status" -ne 2 || grep -q panicked "$bad_err" \
        || ! head -n 1 "$bad_err" | grep -q '^error: '; then
        cat "$bad_err"; echo "bad-invocation gate: 'rbcast $line' exited $status"; exit 1
    fi
done <<BAD
run --loss 1.5
run --loss 1
run --loss 0.5 --redundancy 0
run --protocol persistent-flood --repeats 0
run --r 0
run --placement bernoulli --prob 2
run --placement file:$bad_ids
run --t x
sweep --protocol flood --r 1 --t 5 --t-max 2
sweep --t-max 2 --threads 0
sweep --t-max 2 --retries 0
attack --threads 0
attack --r 0
sweep --t-max 2 --journal a --resume b
attack --journal a --resume b
attack --resume target/no-such.jsonl
sweep --protocol flood --r 1 --t-max 0 --resume $bad_headerless
cluster --width 0 --height 3
cluster --instances 0
cluster --transport loopback --kill 99
cluster --protocol indirect
run --r 1000000
cluster --width 100000 --height 100000
BAD
# The supervision environment is input too: a malformed value is one
# error: line and exit 2 before the sweep runs, never a panic.
for bad_env in RBCAST_RETRIES=0 RBCAST_ROUND_BUDGET=x RBCAST_CHAOS=panic:2; do
    status=0
    env "$bad_env" target/release/rbcast sweep --protocol flood --r 1 --t-max 2 \
        > /dev/null 2> "$bad_err" || status=$?
    if test "$status" -ne 2 || grep -q panicked "$bad_err" \
        || test "$(grep -c . "$bad_err")" -ne 1 || ! grep -q '^error: ' "$bad_err"; then
        cat "$bad_err"; echo "bad-invocation gate: '$bad_env rbcast sweep' exited $status"; exit 1
    fi
done
# A line its writer never writes is corruption, not a record: a real
# sweep journal whose first task line ends in \r\n is one error: line
# and exit 2.
bad_crlf=target/bad_invocation_crlf.jsonl
target/release/rbcast sweep --protocol flood --r 1 --t-max 2 --journal "$bad_crlf" > /dev/null
sed -i '2s/$/\r/' "$bad_crlf"
cp "$bad_crlf" "$bad_crlf.orig"
status=0
target/release/rbcast sweep --protocol flood --r 1 --t-max 2 --resume "$bad_crlf" \
    > /dev/null 2> "$bad_err" || status=$?
if test "$status" -ne 2 || grep -q panicked "$bad_err" \
    || test "$(grep -c . "$bad_err")" -ne 1 || ! grep -q '^error: ' "$bad_err"; then
    cat "$bad_err"; echo "bad-invocation gate: a CRLF journal line resumed (exit $status)"; exit 1
fi
# A refused resume leaves the journal as it was and creates nothing.
cmp -s "$bad_headerless" "$bad_headerless.orig" && cmp -s "$bad_crlf" "$bad_crlf.orig" \
    && test ! -e target/no-such.jsonl && test ! -e a && test ! -e b \
    || { echo "bad-invocation gate: a refused resume touched a journal"; exit 1; }
rm -f "$bad_err" "$bad_ids" "$bad_headerless" "$bad_headerless.orig" "$bad_crlf" "$bad_crlf.orig"
echo "bad-invocation gate passed"

echo "==> cluster chaos smoke (3x3 UDP processes, burst loss, kill+restart)"
# Nine `rbcast serve` OS processes on loopback UDP ports, every link
# behind the seeded Gilbert-Elliott chaos shim, node 4 killed mid-run
# and restarted from its JSONL journal. The run must commit exactly
# what the sim oracle commits (parity: MATCH => exit 0) and the victim
# must have resumed from its journal (two boot records = epoch bump).
cluster_dir=target/cluster_smoke
cluster_out=target/cluster_smoke.out
rm -rf "$cluster_dir"
cargo run -q --release --bin rbcast -- cluster \
    --width 3 --height 3 --instances 4 --rounds 16 \
    --base-port 47500 --chaos-seed 3405691582 --kill 4 --dir "$cluster_dir" \
    > "$cluster_out" 2>&1 \
    || { cat "$cluster_out"; echo "cluster smoke: run failed"; exit 1; }
grep -q "parity: MATCH" "$cluster_out" \
    || { cat "$cluster_out"; echo "cluster smoke: digest mismatch vs sim oracle"; exit 1; }
test "$(grep -c '"boot"' "$cluster_dir/node4.jsonl")" -eq 2 \
    || { echo "cluster smoke: victim did not resume from its journal"; exit 1; }
rm -rf "$cluster_dir" "$cluster_out"
echo "cluster chaos smoke passed"

echo "==> cluster loopback gate (8x8, 12x12 and 16x16 in-process: parity, and the net: line's exact counts are pinned)"
# The same runtime over the in-process hub is deterministic to the
# datagram, so what the links did is a fixed string: a lost dedup, an
# extra retransmission, a changed send order or one journal record more
# fails here on any host, however its clock swings. Both lines were
# computed at the commit before the pump was rebuilt around what
# arrives (PR 19) and have not moved since.
loopback_gate() {
    want=$1; shift
    out=target/cluster_loopback.out
    cargo run -q --release --bin rbcast -- cluster --transport loopback \
        --width 8 --height 8 --protocol indirect-simplified --instances 16 "$@" \
        > "$out" 2>&1 \
        || { cat "$out"; echo "cluster loopback gate: run failed ($*)"; exit 1; }
    grep -q "parity: MATCH" "$out" \
        || { cat "$out"; echo "cluster loopback gate: digest mismatch vs sim oracle ($*)"; exit 1; }
    test "$(grep '^net: ' "$out")" = "$want" \
        || { grep '^net: ' "$out"; echo "$want"; \
             echo "cluster loopback gate: the net: line above moved from its pin below it ($*)"; exit 1; }
    rm -f "$out"
}
loopback_gate "net: 17 ticks | 81920 frames sent, 0 retransmitted | rx 0 duplicate, 0 stale-epoch, 8072 acks, 0 window drops | 0 stale frames, 0 forced rounds, 0 wire errors | journal 83072 records (81.12/commit)"
loopback_gate "net: 22418 ticks | 81920 frames sent, 90730 retransmitted | rx 66284 duplicate, 0 stale-epoch, 9940 acks, 0 window drops | 12 stale frames, 0 forced rounds, 0 wire errors | journal 83159 records (81.21/commit)" \
    --chaos-seed 3405691582 --kill 12
# The benchmark's `cluster_clean` shape at full size (later flags win):
# 1.27 M journal records through the memory journal. Its line was taken
# from the commit before that journal stored records in place of lines.
loopback_gate "net: 41 ticks | 1261568 frames sent, 0 retransmitted | rx 0 duplicate, 0 stale-epoch, 81608 acks, 0 window drops | 0 stale frames, 0 forced rounds, 0 wire errors | journal 1272320 records (77.66/commit)" \
    --width 16 --height 16 --instances 64 --rounds 40
# The benchmark's `cluster_chaos_kill` shape. 8x8 and 16x16 fit no TDMA
# schedule, so there a node's neighbours rank in id order; 12x12 fits
# one. A fault-free run's decisions do not depend on the order within a
# round (an id-order drain keeps this line and the digest), so the rank
# order itself is pinned by `runtime.rs`'s 6x6 proptest. The line was
# taken from the commit before the runtime kept one record per
# neighbour.
loopback_gate "net: 38883 ticks | 534528 frames sent, 776158 retransmitted | rx 590417 duplicate, 2 stale-epoch, 44116 acks, 0 window drops | 12 stale frames, 0 forced rounds, 0 wire errors | journal 539464 records (78.05/commit)" \
    --width 12 --height 12 --instances 48 --rounds 32 --chaos-seed 3405691582 --kill 40
echo "cluster loopback gate passed"

echo "==> attack search gate (pinned seed beats the hand-built library; replay is exact)"
# The adversary search must earn its keep: at the pinned seed it has to
# find a placement strictly worse (for the protocol) than every
# hand-built strategy on at least one (r, t) cell — otherwise the
# annealer has regressed to a no-op and `rbcast attack` is decoration.
attack_out=target/attack_gate.out
cargo run -q --release --bin rbcast -- attack --seed 10976964 --steps 60 --r 1 --gate \
    > "$attack_out" 2>&1 \
    || { cat "$attack_out"; echo "attack gate: search no longer beats the library"; exit 1; }
grep -q "gate: PASS" "$attack_out" \
    || { cat "$attack_out"; echo "attack gate: missing PASS marker"; exit 1; }
# Thread-count invariance: every random draw is a pure function of
# (seed, step), so 1 and 2 workers must produce byte-identical reports.
cargo run -q --release --bin rbcast -- attack --seed 10976964 --steps 60 --r 1 --threads 1 \
    > target/attack_t1.out 2>&1
cargo run -q --release --bin rbcast -- attack --seed 10976964 --steps 60 --r 1 --threads 2 \
    > target/attack_t2.out 2>&1
cmp -s target/attack_t1.out target/attack_t2.out \
    || { diff target/attack_t1.out target/attack_t2.out; \
         echo "attack gate: thread count changed the search result"; exit 1; }
rm -f "$attack_out" target/attack_t1.out target/attack_t2.out
echo "attack search gate passed"

echo "==> resume gates (attack and sweep journals cut on and inside a line resume byte-identically)"
# resume_gate NAME ARGS...: run `rbcast ARGS --journal J` straight
# through, then cut J — once on a line boundary, once inside line 3, the
# shape a kill mid-write leaves — and `rbcast ARGS --threads 2 --resume
# J` must print exactly what the straight-through run printed.
resume_gate() {
    name=$1; shift
    journal=target/${name}_gate.jsonl
    rm -f "$journal"
    cargo run -q --release --bin rbcast -- "$@" --journal "$journal" \
        > "target/${name}_full.out" 2>&1
    test -s "$journal" || { echo "$name gate: no checkpoint journal written"; exit 1; }
    head -n 1 "$journal" | grep -Eq "$journal_header" \
        || { head -n 1 "$journal"; echo "$name gate: journal does not open with its fingerprint header"; exit 1; }
    mv "$journal" "$journal.full"
    mid=$(( $(head -n 2 "$journal.full" | wc -c) + $(sed -n 3p "$journal.full" | wc -c) / 2 ))
    for cut in "head -n 3" "head -c $mid"; do
        $cut "$journal.full" > "$journal"
        cargo run -q --release --bin rbcast -- "$@" --threads 2 --resume "$journal" \
            > "target/${name}_resumed.out" 2>&1
        cmp -s "target/${name}_full.out" "target/${name}_resumed.out" \
            || { diff "target/${name}_full.out" "target/${name}_resumed.out"; \
                 echo "$name gate: resume after '$cut' diverged from the straight-through run"; exit 1; }
    done
    rm -f "target/${name}_full.out" "target/${name}_resumed.out" "$journal" "$journal.full"
}
resume_gate attack attack --seed 10976964 --steps 60 --r 1 --checkpoint-every 8
resume_gate sweep sweep --protocol flood --r 1 --t-max 4 --placement cluster --behavior crash
echo "resume gates passed"

echo "==> journal write-failure gates (a lost checkpoint write: same stdout, one error: line, exit 2, and the cut journal resumes)"
# failure_gate NAME ARGS...: run `rbcast ARGS --journal J` under a
# one-block file-size limit with SIGXFSZ ignored, so the write that
# crosses it is short and the next fails with EFBIG. Stdout and stderr
# go through pipes, which the limit does not cover. The run must print
# what an unlimited run prints, then exit 2 with one error: line naming
# J and a task; `--resume J` without the limit must finish the output.
failure_gate() {
    name=$1; shift
    out=target/${name}_failure
    journal=$out.jsonl
    rm -f "$journal"
    target/release/rbcast "$@" --journal "$out.full.jsonl" > "$out.full" 2>&1 \
        || { cat "$out.full"; echo "$name failure gate: unlimited run failed"; exit 1; }
    echo 0 > "$out.status"
    { { sh -c "trap '' XFSZ; ulimit -f 1; exec \"\$@\"" sh target/release/rbcast "$@" \
            --journal "$journal" 2>&1 1>&3 3>&- || echo $? > "$out.status"; } \
        | cat > "$out.err"; } 3>&1 | cat > "$out.cut"
    test "$(cat "$out.status")" -eq 2 \
        || { cat "$out.err"; echo "$name failure gate: exited $(cat "$out.status"), not 2"; exit 1; }
    test "$(grep -c . "$out.err")" -eq 1 \
        && grep -q "^error: .*$journal.* at task [0-9]" "$out.err" \
        || { cat "$out.err"; echo "$name failure gate: want one error: line naming the journal and a task"; exit 1; }
    cmp -s "$out.full" "$out.cut" \
        || { diff "$out.full" "$out.cut"; echo "$name failure gate: the lost write changed stdout"; exit 1; }
    head -n 1 "$journal" | grep -Eq "$journal_header" \
        || { head -n 1 "$journal"; echo "$name failure gate: cut journal lost its fingerprint header"; exit 1; }
    target/release/rbcast "$@" --resume "$journal" > "$out.resumed" 2>&1 \
        || { cat "$out.resumed"; echo "$name failure gate: resume of the cut journal failed"; exit 1; }
    cmp -s "$out.full" "$out.resumed" \
        || { diff "$out.full" "$out.resumed"; echo "$name failure gate: resume diverged from the unlimited run"; exit 1; }
    rm -f "$out".*
}
failure_gate attack attack --seed 10976964 --steps 60 --r 1 --checkpoint-every 8 --threads 1
failure_gate sweep sweep --protocol flood --r 1 --t-max 8 --placement cluster --behavior crash --threads 1
echo "journal write-failure gates passed"

echo "==> arena allocation gate (--r 2000 and --r 1580 under a 4 GB address-space limit, and an indirect run at --r 43, are one error: line and exit 2, not an abort)"
# r = 2000 is a 16 004-side torus, 256 128 016 nodes: within the 2^32 ids
# cli::arena_fits allows. The arena itself is a stencil plus the TDMA
# order and ranks, 8 B a node (2.0 GB), but the node table a run keeps
# beside it is a slot and an 8 B decision a node: 24 B for flood
# (6.1 GB), 120 B for the attack's indirect-simplified (30.7 GB). The run
# guard's reservation of it must fail as an error. At r = 1580 (159 870 736
# nodes) flood's 3.8 GB node table fits and the 0.6 GB TDMA order beside
# it does not, so the arena's own reservation must fail as an error too.
arena_err=target/arena_gate.err
for cmd in "run --r 2000 --protocol flood" "sweep --r 2000 --protocol flood --t-max 0" \
    "attack --r 2000 --steps 1" "run --r 1580 --protocol flood"; do
    status=0
    # shellcheck disable=SC2086 # splitting the command into arguments is the point
    (ulimit -v 4000000; exec target/release/rbcast $cmd) > /dev/null 2> "$arena_err" || status=$?
    test "$status" -eq 2 && test "$(grep -c . "$arena_err")" -eq 1 \
        && grep -q '^error: .*cannot allocate' "$arena_err" \
        || { cat "$arena_err"; echo "arena allocation gate: 'rbcast $cmd' exited $status"; exit 1; }
done
# An indirect protocol keys every chain member by its displacement from
# the receiver, 8 bits an axis, so a frame key reaches 127. Every relay
# that can count lies within 4r + 1 of the receiver (2r from a committer
# that level 2 counts, which lies within 2r + 1), so past r = 31 a key
# cannot reach them. The run guard refuses that after the reservations
# above, so those cases still read "cannot allocate".
status=0
(ulimit -v 4000000; exec target/release/rbcast run --r 43 --protocol indirect-full) \
    > /dev/null 2> "$arena_err" || status=$?
test "$status" -eq 2 && test "$(grep -c . "$arena_err")" -eq 1 \
    && grep -q '^error: .*r = 43 needs a span-173 frame, past the 127 a frame key reaches' "$arena_err" \
    || { cat "$arena_err"; echo "arena allocation gate: 'rbcast run --r 43 --protocol indirect-full' exited $status"; exit 1; }
rm -f "$arena_err"
echo "arena allocation gate passed"

echo "==> scale smoke (sparse engine matches the dense oracle at 10^4 nodes)"
# Release build: the smoke gate carries a wall budget, and a debug
# build is opt-0 here ([profile.dev] is not overridden), an order of
# magnitude off the numbers the gate is calibrated against.
cargo run -q --release -p rbcast-bench -- scale_bench --smoke

echo "==> benchmark smoke (benchmark/ still builds against crates/* and emits every declared metric)"
# benchmark/ is a package of its own with its own lock file, outside the
# workspace: an API change under crates/ that breaks it fails here, not
# at the next measurement. --check runs every workload and both passes
# at toy size (~2 s after the build).
benchmark/run.sh --check

echo "==> benchmark comparer self-test (two baseline sets of one commit: nothing worse)"
benchmark/run.sh compare benchmark/baseline/set1.json benchmark/baseline/set2.json

echo "==> BENCH_scale.json shape (checked-in scale baseline is current)"
grep -q '"schema": "rbcast-bench-scale/v2"' BENCH_scale.json \
    || { echo "BENCH_scale.json: missing/wrong schema tag"; exit 1; }
grep -q '"nodes": 1000000' BENCH_scale.json \
    || { echo "BENCH_scale.json: missing the 10^6-node cell"; exit 1; }
grep -q '"timings": {' BENCH_scale.json \
    || { echo "BENCH_scale.json: missing the obs timings block"; exit 1; }
grep -q '"peak_rss_kb"' BENCH_scale.json \
    || { echo "BENCH_scale.json: missing the v2 peak-RSS column"; exit 1; }
# Per node a network keeps only what a run changes: the process slot,
# the 8-byte decision and a few bits. The TDMA order is the arena's, a
# crash is a bit, and a slot holds no run constant. The arena keeps no
# neighbour table: rows come from the radius-r stencil, so each ceiling
# below sits 35 200 kB under where it was while the arena stored every
# row (8 ids of 4 B plus a 4 B row end a node at r = 1, 36 MB at 10^6).
# A committed node frees its chains, and an indirect node is 48 bytes
# with its heard-once set inline and its one-level packers boxed only
# while the wave passes it, so the indirect 10^6 cell stays under
# 73 600 kB (177 208 kB at 112 bytes a node with a sorted id list;
# 212 340 kB with the neighbour table; 259 828 kB while every network
# and slot kept its own order and constants; 424 744 kB while every node
# kept its chains).
rss=$(sed -n 's/.*"indirect-simplified", "side": 1000,.*"peak_rss_kb": \([0-9]*\).*/\1/p' BENCH_scale.json)
test -n "$rss" && test "$rss" -lt 73600 \
    || { echo "BENCH_scale.json: indirect-simplified at 10^6 nodes reads ${rss:-no} kB peak RSS (limit 73600)"; exit 1; }
# A CPA node is 40 bytes, its announcer set an inline word at r = 1,
# so the CPA 10^6 cell stays under 57 600 kB (64 568 kB at 48 bytes a
# node with a sorted id list freed at commit; 99 296 kB with the
# neighbour table; 156 892 kB at 64 bytes a node that kept the list).
rss=$(sed -n 's/.*"cpa", "side": 1000,.*"peak_rss_kb": \([0-9]*\).*/\1/p' BENCH_scale.json)
test -n "$rss" && test "$rss" -lt 57600 \
    || { echo "BENCH_scale.json: cpa at 10^6 nodes reads ${rss:-no} kB peak RSS (limit 57600)"; exit 1; }
# Honest nodes are stored inline, 16 B a flood node (a 16 B box pointer
# plus a heap chunk before, then 24 B holding the run's parameters), so
# the flood 10^6 cell stays under 44 800 kB (68 096 kB with the neighbour
# table; 93 068 kB at 24 B a node).
rss=$(sed -n 's/.*"flood", "side": 1000,.*"peak_rss_kb": \([0-9]*\).*/\1/p' BENCH_scale.json)
test -n "$rss" && test "$rss" -lt 44800 \
    || { echo "BENCH_scale.json: flood at 10^6 nodes reads ${rss:-no} kB peak RSS (limit 44800)"; exit 1; }
# Each full-mode cell runs in a child process of its own, so its peak is
# its own: the §VI 10^4 cell reads 57 344–57 440 kB, where it read the
# §VI-B 10^6 cell's mark (63 368–63 584 kB) while every cell shared one
# process.
rss=$(sed -n 's/.*"indirect-full", "side": 100,.*"peak_rss_kb": \([0-9]*\).*/\1/p' BENCH_scale.json)
test -n "$rss" && test "$rss" -lt 60000 \
    || { echo "BENCH_scale.json: indirect-full at 10^4 nodes reads ${rss:-no} kB peak RSS (limit 60000)"; exit 1; }
# The paper's own protocol, §VI (indirect-full), at 10^5 nodes: its
# two-level store keys every chain member by its u16 frame key (its
# displacement; 8-byte chains, not 20 bytes of global ids and a signature) and
# keeps a record only for a (committer, value) pair that holds a chain,
# so the cell stays under 598 400 kB (879 572 kB with 20-byte chains and
# a packer header for every pair of the frame). It reads 538 000–538 032
# kB with one key-sorted 40-byte record a pair, 520 572–520 664 kB with
# 32-byte packer headers and a u16 index over the frame's pairs.
rss=$(sed -n 's/.*"indirect-full", "side": 316,.*"peak_rss_kb": \([0-9]*\).*/\1/p' BENCH_scale.json)
test -n "$rss" && test "$rss" -lt 598400 \
    || { echo "BENCH_scale.json: indirect-full at 10^5 nodes reads ${rss:-no} kB peak RSS (limit 598400)"; exit 1; }

echo "CI: all gates passed"
