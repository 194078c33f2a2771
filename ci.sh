#!/usr/bin/env sh
# Tier-1 gate, split into named stages so CI (and humans) can run them
# individually:
#
#   ./ci.sh              # run every stage, print per-stage wall-clock times
#   ./ci.sh build test   # run only the named stages, in the given order
#
# Stages: build test lint determinism obs bench
set -eu

STAGE_NAMES=""
STAGE_TIMES=""

run_stage() {
    name="$1"
    echo "==> stage: $name"
    start=$(date +%s)
    "stage_$name"
    end=$(date +%s)
    STAGE_NAMES="$STAGE_NAMES $name"
    STAGE_TIMES="$STAGE_TIMES $((end - start))"
}

report() {
    echo "==> stage timings (wall-clock seconds)"
    # shellcheck disable=SC2086 # parallel word lists, splitting intended
    set -- $STAGE_TIMES
    for name in $STAGE_NAMES; do
        printf '    %-12s %ss\n' "$name" "$1"
        shift
    done
    # On GitHub Actions, publish the same table as job-summary markdown.
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        {
            echo "### ci.sh stage timings"
            echo ""
            echo "| stage | wall-clock (s) |"
            echo "| --- | ---: |"
            # shellcheck disable=SC2086
            set -- $STAGE_TIMES
            for name in $STAGE_NAMES; do
                echo "| $name | $1 |"
                shift
            done
        } >> "$GITHUB_STEP_SUMMARY"
    fi
}

stage_build() {
    (set -x; cargo build --release --workspace)
}

stage_test() {
    # Every suite in the workspace — wire, reactor, hierarchy, data,
    # telemetry, dag, jobserver (SIGKILL crash recovery included) — at the
    # ambient RAYON_NUM_THREADS; CI runs this stage at widths 1 and 4.
    (set -x; cargo test -q --workspace)
}

stage_lint() {
    (set -x
     cargo fmt --all --check
     cargo clippy --workspace --all-targets -- -D warnings)
    # The workflow file must stay parseable; prefer a real YAML parser when
    # one is around, fall back to a structural sanity grep.
    if command -v python3 >/dev/null 2>&1 && \
       python3 -c 'import yaml' 2>/dev/null; then
        (set -x; python3 -c 'import sys, yaml; yaml.safe_load(open(".github/workflows/ci.yml"))')
    else
        (set -x
         grep -q '^jobs:' .github/workflows/ci.yml
         grep -q 'RAYON_NUM_THREADS' .github/workflows/ci.yml)
    fi
    # This script is part of the gate too: shellcheck when available,
    # otherwise at least a parse check.
    if command -v shellcheck >/dev/null 2>&1; then
        (set -x; shellcheck ci.sh)
    else
        (set -x; sh -n ci.sh)
    fi
    # Drift guard: every stage_* function defined here must be reachable
    # through ALL_STAGES, or `./ci.sh` silently stops running it. (No
    # variable of its own: `run_stage` reads the global `name` afterwards.)
    for fn in $(grep -o '^stage_[a-z_]*' ci.sh | sort -u); do
        case " $ALL_STAGES " in
            *" ${fn#stage_} "*) ;;
            *) echo "ci.sh drift: $fn() is not listed in ALL_STAGES" >&2; exit 1 ;;
        esac
    done
    # Drift guard: every experiment binary is run by run_experiments.sh or
    # by a stage here (`--bin NAME`). One that nothing runs rots unseen, and
    # a retired one must not come back silently.
    orphans=""
    for f in crates/bench/src/bin/*.rs; do
        bin=$(basename "$f" .rs)
        if ! grep -qw "$bin" run_experiments.sh && ! grep -qw -e "--bin $bin" ci.sh; then
            orphans="$orphans $bin"
        fi
    done
    if [ -n "$orphans" ]; then
        echo "ci.sh drift: experiment binaries run by nothing:$orphans" >&2
        exit 1
    fi
    # Drift guard: every experiment binary, test file and BENCH_*.json the
    # docs name must exist, so a deleted instrument cannot stay cited as a
    # command. CHANGES.md and ROADMAP.md are history and plans, and
    # EXPERIMENTS.md's "Retired instruments" section names what is gone on
    # purpose; none of them is checked. A bare `tests/NAME.rs` may sit at
    # the root or under any crate or vendored package.
    stale=$(awk -v re='(^|[^A-Za-z0-9_])(exp_[a-z0-9_]+|BENCH_[A-Za-z0-9_]+[.]json|([A-Za-z0-9_.-]+/)*tests/[A-Za-z0-9_]+[.]rs)' '
        FNR == 1 { skip = 0 }
        /^## Retired instruments/ { skip = 1 }
        /^## / && !/^## Retired instruments/ { skip = 0 }
        skip { next }
        { line = $0
          while (match(line, re)) {
              name = substr(line, RSTART, RLENGTH)
              sub(/^[^A-Za-z0-9_.]/, "", name)
              print FILENAME ":" FNR, name
              line = substr(line, RSTART + RLENGTH)
          } }' README.md DESIGN.md EXPERIMENTS.md |
        while read -r at name; do
            case $name in
                exp_*) paths="crates/bench/src/bin/$name.rs" ;;
                tests/*) paths="$name crates/*/$name vendor/*/$name" ;;
                *) paths="$name" ;;
            esac
            # shellcheck disable=SC2086 # the globs above are meant to expand
            set -- $paths
            for p in "$@"; do
                [ -f "$p" ] && continue 2
            done
            echo "$at $name"
        done)
    if [ -n "$stale" ]; then
        echo "ci.sh drift: docs name files that do not exist:" >&2
        printf '%s\n' "$stale" >&2
        exit 1
    fi
    # Drift guard: every `pub mod NAME;` of a library crate is reached from
    # outside its own file, or a module that only its own tests call rots
    # unseen. Reached means a non-test line under src, crates, examples or
    # benchmark/src (each file cut at its `#[cfg(test)]`, or whole at a
    # `#![cfg(test)]`; `tests/` directories and comment lines skipped)
    # names the module, or a name
    # the crate root re-exports from it, as `<crate>::X` or in a
    # `use <crate>::{..}` list (in the same crate, `crate::` and `super::`
    # too), or bare in the crate root outside that `pub use`. Allowed, one
    # per line: `crate::module why`.
    reach_allow="grafic::measure the P(k) estimator that grafic's spectrum tests measure synthesized fields with
cosmogrid::deployment the reservation-to-hierarchy bridge, deployed live by its own tests"
    # One line per source line (`file:line:text`); a `use` statement is
    # joined onto the line it starts on.
    corpus=$(find src crates examples benchmark/src -name '*.rs' ! -path '*/tests/*' | sort |
        xargs awk '
            FNR == 1 { cut = 0; stmt = "" }
            /^#!?\[cfg\(test\)\]/ { cut = 1 }
            cut || /^[[:space:]]*\/\// { next }
            stmt == "" && !/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?use[[:space:]]/ {
                print FILENAME ":" FNR ":" $0
                next
            }
            { if (stmt == "") at = FNR; stmt = stmt $0 }
            /;/ { print FILENAME ":" at ":" stmt; stmt = "" }')
    unreached=""
    for librs in crates/*/src/lib.rs src/lib.rs; do
        dir=${librs%lib.rs}
        lib=$(sed -n 's/^name = "\(.*\)"$/\1/p' "${dir%src/}Cargo.toml" | head -n 1 | tr - _)
        for mod in $(sed -n 's/^pub mod \([a-z_0-9]*\);$/\1/p' "$librs"); do
            if printf '%s\n' "$reach_allow" | grep -q "^$lib::$mod "; then
                continue
            fi
            # The last name of each item of `pub use NAME::{..};`.
            names=$(awk -v m="$mod" '
                index($0, "pub use " m "::") == 1 { stmt = " " }
                stmt != "" { stmt = stmt $0 }
                stmt != "" && /;/ {
                    sub(/^ *pub use [a-z_0-9]+::/, "", stmt)
                    gsub(/[{};]/, "", stmt)
                    k = split(stmt, item, ",")
                    for (i = 1; i <= k; i++) {
                        w = split(item[i], word, /[: ]+/)
                        while (w > 0 && word[w] == "") w--
                        if (w > 0 && word[w] != "self" && word[w] != "*") print word[w]
                    }
                    stmt = ""
                }' "$librs" | paste -sd '|' -)
            if ! printf '%s\n' "$corpus" | awk -v m="$mod" -v lib="$lib" -v dir="$dir" -v names="$names" '
                BEGIN {
                    end = "($|[^A-Za-z0-9_])"
                    alt = "(" m (names == "" ? "" : "|" names) ")"
                    # [0]: another crate; [1]: this one.
                    for (s = 0; s < 2; s++) {
                        root = s ? "(" lib "|crate|super)" : lib
                        path[s] = "(^|[^A-Za-z0-9_])" root "::" alt end
                        list[s] = "^[[:space:]]*(pub(\\([a-z]+\\))?[[:space:]]+)?use[[:space:]]+" \
                            root "::[{].*[{,[:space:]]" alt end
                    }
                    bare = "(^|[^A-Za-z0-9_])(" names ")" end
                }
                {
                    file = substr($0, 1, index($0, ":") - 1)
                    text = substr($0, length(file) + 2)
                    text = substr(text, index(text, ":") + 1)
                    if (file == dir m ".rs" || index(file, dir m "/") == 1) next
                    if (file == dir "lib.rs" && index(text, "pub use " m "::") == 1) next
                    s = index(file, dir) == 1 && index(file, dir "bin/") != 1
                    if (text ~ path[s] || text ~ list[s] ||
                        (names != "" && file == dir "lib.rs" && text ~ bare)) {
                        hit = 1
                        exit
                    }
                }
                END { exit !hit }'; then
                unreached="$unreached $lib::$mod"
            fi
        done
    done
    if [ -n "$unreached" ]; then
        echo "ci.sh drift: pub modules nothing reaches from outside their own file:$unreached" >&2
        exit 1
    fi
    # Drift guard: every byte format in diet-core is built from codec.rs's
    # `Wire` impls. A buffer primitive called anywhere else is a second
    # hand-rolled encoder growing back beside the table.
    if grep -rnE '\.(put|get)_(u8|[iuf](16|32|64)_le)\(' crates/core/src --include='*.rs' \
        | grep -v '^crates/core/src/codec\.rs:'; then
        echo "ci.sh drift: buffer primitives outside codec.rs (use its Wire impls)" >&2
        exit 1
    fi
    # Drift guard: every client stub talks through transport.rs's `Peer`.
    # A `MuxConn::connect` anywhere else is a second dial slot growing back.
    if grep -rn 'MuxConn::connect(' crates/core/src --include='*.rs' \
        | grep -v '^crates/core/src/transport\.rs:'; then
        echo "ci.sh drift: MuxConn::connect outside transport.rs (use its Peer)" >&2
        exit 1
    fi
    # Drift guard: a liveness probe rides its peer's mux (`Peer::ping`). The
    # one non-test `TcpTransport::connect(` is `MuxConn::connect`'s; a second
    # is a probe dialing a connection of its own again.
    dials=$(src_sites crates/core/src 'TcpTransport::connect[(]')
    if [ "$(printf '%s\n' "$dials" | grep -c .)" -gt 1 ]; then
        echo "ci.sh drift: TcpTransport::connect outside MuxConn::connect:" >&2
        printf '%s\n' "$dials" >&2
        exit 1
    fi
    # Drift guard: one retry loop (client::retry_loop) backs off for every
    # GridRPC call and DAG node. A second non-test caller of
    # `backoff_jittered` is a second loop growing back.
    backoffs=$(src_sites crates/core/src '[.]backoff_jittered[(]')
    if [ "$(printf '%s\n' "$backoffs" | grep -c .)" -gt 1 ]; then
        echo "ci.sh drift: backoff_jittered called outside the one retry loop:" >&2
        printf '%s\n' "$backoffs" >&2
        exit 1
    fi
    # Ratchet: completion is to be pushed, not polled, until only the retry
    # back-offs sleep. The count of non-test `thread::sleep` sites may fall,
    # never rise; lower the bound when it does.
    sleeps=$(src_sites crates/core/src 'thread::sleep[(]')
    if [ "$(printf '%s\n' "$sleeps" | grep -c .)" -gt 6 ]; then
        echo "ci.sh drift: more than 6 thread::sleep sites in crates/core/src:" >&2
        printf '%s\n' "$sleeps" >&2
        exit 1
    fi
    # Ratchet: a setting that only one value serves is a constant. The
    # `pub` fields of the jobserver's, its store's and the DAG engine's
    # configs, and the flags of `diet_jobserver` (`--help` aside), may
    # fall, never rise; lower the bounds when they do.
    fields=$(for s in JobServerConfig:jobserver JobStoreConfig:jobserver DagEngineConfig:dag; do
        awk -v s="pub struct ${s%%:*} [{]" '
            $0 ~ s { inside = 1; next }
            inside && /^}/ { exit }
            inside && /^    pub [a-z_0-9]+:/ { sub(/:$/, "", $2); print FILENAME ":" FNR ":" $2 }
        ' "crates/core/src/${s#*:}.rs"
    done)
    flags=$(grep -o '"--[a-z-]*"' crates/core/src/bin/diet_jobserver.rs | sort -u | grep -vx '"--help"')
    if [ "$(printf '%s\n' "$fields" | grep -c .)" -gt 10 ] \
        || [ "$(printf '%s\n' "$flags" | grep -c .)" -gt 9 ]; then
        echo "ci.sh drift: more than 10 jobserver/DAG config fields or 9 diet_jobserver flags:" >&2
        printf '%s\n' "$fields" "$flags" >&2
        exit 1
    fi
    # Drift guard: finding runs on the caller's thread — every remote
    # subtree is asked at once and waited on once, and the heartbeat sweep
    # runs on a `monitor::Periodic`. A non-test `thread::spawn` in agent.rs
    # is a per-request thread growing back.
    spawns=$(src_sites crates/core/src 'thread::spawn' | grep '^crates/core/src/agent[.]rs:' || true)
    if [ -n "$spawns" ]; then
        echo "ci.sh drift: thread::spawn in agent.rs (finding runs on the caller's thread):" >&2
        printf '%s\n' "$spawns" >&2
        exit 1
    fi
    # Drift guard: a client connection has no thread of its own — the
    # callers waiting on a `MuxConn` take turns reading it (leader/follower).
    # A non-test `thread::spawn` in transport.rs is a demux thread growing
    # back.
    spawns=$(src_sites crates/core/src 'thread::spawn' | grep '^crates/core/src/transport[.]rs:' || true)
    if [ -n "$spawns" ]; then
        echo "ci.sh drift: thread::spawn in transport.rs (callers read their own replies):" >&2
        printf '%s\n' "$spawns" >&2
        exit 1
    fi
    # Drift guard: a DAG node launches on a parked launch thread, and
    # `DagEngine::launch` starts a new one only when none is idle. Its
    # `thread::spawn` is the one non-test spawn in dag.rs; a second is a
    # thread per node growing back. (Each hit is printed with the function
    # it sits in.)
    spawns=$(awk '/^#!?\[cfg\(test\)\]/ { exit }
             match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
             /thread::spawn/ { print FILENAME ":" FNR ":" fn }' crates/core/src/dag.rs)
    if [ "$(printf '%s\n' "$spawns" | grep -c .)" -ne 1 ] \
        || ! printf '%s\n' "$spawns" | grep -q ':launch$'; then
        echo "ci.sh drift: dag.rs spawns a thread outside its one launcher site:" >&2
        printf '%s\n' "$spawns" >&2
        exit 1
    fi
    # Drift guard: finding reads each remote subtree from the batch its slot
    # holds and walks it only through `Collect::read_or_walk`, the one path
    # that keeps the batch fresh; federation (`federate`) is the only other
    # asker. A `send_collect(` call anywhere else is a second finding path
    # growing back beside the table. (Each hit is printed with the function
    # it sits in; `fn send_collect(` itself is a definition, not a call.)
    collects=$(find crates/core/src -name '*.rs' | sort | while read -r f; do
        awk '/^#!?\[cfg\(test\)\]/ { exit }
             match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
             /send_collect[(]/ && !/fn send_collect[(]/ { print FILENAME ":" FNR ":" fn }' "$f"
    done | grep -v -e '^crates/core/src/agent[.]rs:[0-9]*:read_or_walk$' \
                   -e '^crates/core/src/hierarchy[.]rs:[0-9]*:federate$' || true)
    if [ -n "$collects" ]; then
        echo "ci.sh drift: send_collect outside the held-table refresh and federation:" >&2
        printf '%s\n' "$collects" >&2
        exit 1
    fi
    # Drift guard: the jobserver compacts only when the WAL has paid for it
    # (`JobStore::maybe_snapshot`). A snapshot rewrites the whole store, so
    # an unconditional `snapshot_now(` on the dispatch path makes every task
    # cost O(history) again. (Each hit is printed with the function it sits
    # in; `fn snapshot_now(` itself is a definition, not a call.)
    snapshots=$(find crates/core/src -name '*.rs' | sort | while read -r f; do
        awk '/^#!?\[cfg\(test\)\]/ { exit }
             match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
             /snapshot_now[(]/ && !/fn snapshot_now[(]/ { print FILENAME ":" FNR ":" fn }' "$f"
    done | grep -v '^crates/core/src/jobserver[.]rs:[0-9]*:maybe_snapshot$' || true)
    if [ -n "$snapshots" ]; then
        echo "ci.sh drift: snapshot_now called outside JobStore::maybe_snapshot:" >&2
        printf '%s\n' "$snapshots" >&2
        exit 1
    fi
    # Drift guard: a jobserver dispatcher keeps a window of calls on the
    # wire, and every claim's round is the one retry loop
    # (`client::retry_loop`) whose attempts wait on calls already sent
    # (`TcpSedPool::send_call`). In jobserver.rs, `retry_loop(` called from
    # a second function, a `.call_traced(`, or a blocking `.request(`
    # outside `impl JobClient` is a task holding a dispatcher through its
    # round trips again. (Each hit is printed with the function it sits in.)
    dispatch=$(awk '/^#!?\[cfg\(test\)\]/ { exit }
             /^impl / { impl = $2 }
             /^}/ { impl = "" }
             match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
             /retry_loop[(]/ && !/fn retry_loop[(]/ { print "retry_loop:" FNR ":" fn }
             /[.]call_traced[(]/ { print "call_traced:" FNR ":" fn }
             /[.]request[(]/ && impl != "JobClient" { print "request:" FNR ":" fn }
        ' crates/core/src/jobserver.rs)
    loops=$(printf '%s\n' "$dispatch" | sed -n 's/^retry_loop:[0-9]*://p' | sort -u)
    if [ "$(printf '%s\n' "$loops" | grep -c .)" -ne 1 ] \
        || printf '%s\n' "$dispatch" | grep -q -e '^call_traced:' -e '^request:'; then
        echo "ci.sh drift: jobserver dispatch outside its one windowed retry loop:" >&2
        printf '%s\n' "$dispatch" >&2
        exit 1
    fi
    # Drift guard: a window's findings go to the MA in one write
    # (`RemoteAgentClient::send_submits`), the first dispatch of each of its
    # claims to the WAL in one append (`JobStore::dispatched_all`) and its
    # served calls in one more (`JobStore::complete_all`). A `.submit(`,
    # `send_submit(`, `.dispatched(` or `.complete(` call inside
    # `run_window` is a write per claim there again. (Each hit is printed
    # with its line.)
    window=$(awk '/^#!?\[cfg\(test\)\]/ { exit }
             match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
             fn == "run_window" && /[.]submit[(]|send_submit[(]|[.]dispatched[(]|[.]complete[(]/ {
                 print FILENAME ":" FNR ":" $0
             }' crates/core/src/jobserver.rs)
    if [ -n "$window" ]; then
        echo "ci.sh drift: a per-claim write inside JobServer::run_window:" >&2
        printf '%s\n' "$window" >&2
        exit 1
    fi
    # Drift guard: the periodic base mesh is solved directly by FFT
    # (ramses::poisson::solve). A V-cycle or its grid transfers growing back
    # in ramses is a second periodic solver beside it.
    mg=$(src_sites crates/ramses/src 'fn (v_cycle|restrict|prolong_add)[<(]')
    if [ -n "$mg" ]; then
        echo "ci.sh drift: multigrid beside the FFT Poisson solve:" >&2
        printf '%s\n' "$mg" >&2
        exit 1
    fi
    # Drift guard: source and potential are real, so ramses transforms only
    # the half spectrum (grafic::fft::filter_real). A `Grid3` in ramses is a
    # full complex transform of a real field growing back.
    full=$(src_sites crates/ramses/src 'Grid3')
    if [ -n "$full" ]; then
        echo "ci.sh drift: full complex transform in ramses (use filter_real):" >&2
        printf '%s\n' "$full" >&2
        exit 1
    fi
    # Drift guard: the PM kernels (CIC deposit and interpolation, the
    # gradient, the solve) index the mesh directly. `Mesh::idx`, and `get`
    # on top of it, wraps every coordinate with a `%`; called per cell or
    # per particle corner it puts back the divides the kernels dropped.
    # Mesh's accessors take three coordinates; a slice's, `Option`'s or a
    # map's one-argument `.get(` passes. (`[^f]` spares `get`'s own
    # `self.idx(`.)
    wraps=$(src_sites crates/ramses/src '[^f][.](idx|get)[(][^()]*,[^()]*,' |
        grep -E '/(particles|gravity|poisson)[.]rs:' || true)
    if [ -n "$wraps" ]; then
        echo "ci.sh drift: modulo mesh indexing in a PM kernel:" >&2
        printf '%s\n' "$wraps" >&2
        exit 1
    fi
    # Drift guard: the CIC deposit adds each particle chunk's partial sums
    # into the one mesh, over the x-planes each task owns (owner computes).
    # A `Vec<Mesh>` in particles.rs is a dense scratch mesh per chunk
    # growing back: 1 GiB of scratch at 128³ particles on a 256³ mesh.
    scratch=$(src_sites crates/ramses/src 'Vec<Mesh>' | grep '/particles[.]rs:' || true)
    if [ -n "$scratch" ]; then
        echo "ci.sh drift: scratch meshes in the CIC deposit (deposit owner-computes):" >&2
        printf '%s\n' "$scratch" >&2
        exit 1
    fi
}

# file:line of every line under directory $1 that matches the awk regex $2,
# each file cut at its `#[cfg(test)]` (a `#![cfg(test)]` file is cut whole)
# so unit tests do not count.
src_sites() {
    find "$1" -name '*.rs' | sort | while read -r f; do
        awk -v re="$2" '/^#!?\[cfg\(test\)\]/ { exit }
             $0 ~ re { print FILENAME ":" FNR }' "$f"
    done
}

stage_determinism() {
    # The full simulation and solver stack must be bitwise-identical at 1
    # and 4 threads (the tests also sweep widths in-process via
    # ThreadPool::install), alone and as two concurrent runs sharing the
    # pool — the latter also at the machine's own default width, where the
    # helper rule decides. The pool's semantics suite (under vendor/, which
    # `--workspace` does not reach) runs twice: in parallel (test threads
    # are each other's concurrent callers) and one test at a time (every
    # region gets its helpers). Plus the
    # kernel-scaling smoke: reduced sweep, validates the JSON artifact and
    # cross-thread-count checksums.
    (set -x
     env -u RAYON_NUM_THREADS cargo test -q -p ramses --test determinism_threads
     RAYON_NUM_THREADS=1 cargo test -q -p ramses --test determinism_threads
     RAYON_NUM_THREADS=4 cargo test -q -p ramses --test determinism_threads
     RAYON_NUM_THREADS=4 cargo test -q -p rayon --test semantics
     RAYON_NUM_THREADS=4 cargo test -q -p rayon --test semantics -- --test-threads=1
     cargo run --release -p bench --bin exp_kernel_scaling -- --quick)
}

stage_obs() {
    # Observability smoke: a live traced campaign over TCP (100 requests,
    # one mid-run SeD kill) that dumps both exporters and self-checks that
    # every request's spans share one trace id across all five phases. The
    # binary validates the Chrome trace with bench::validate_json before
    # writing it; re-check the written artifacts exist and are non-empty.
    (set -x
     cargo run --release -p bench --bin exp_live_fig5
     test -s target/experiments/live_metrics.prom
     test -s target/experiments/live_trace.json
     grep -q 'diet_client_requests_total' target/experiments/live_metrics.prom
     grep -q '"ph":"X"' target/experiments/live_trace.json)
}

stage_bench() {
    # The repo's benchmark (BENCHMARK.json): lint and unit-test the
    # package, then one zoom campaign — the workload the kernels and the
    # pool move — compared against the committed baseline. `compare` exits
    # non-zero on a metric that regressed past its bound; "unresolved"
    # (spread wider than the bound, routine with one pass) is tolerated.
    (set -x
     benchmark/check.sh
     benchmark/run.sh --workload zoom_campaign --seed 1
     benchmark/run.sh compare benchmark/baseline.json benchmark/out/results.json)
}

ALL_STAGES="build test lint determinism obs bench"
if [ $# -eq 0 ]; then
    # shellcheck disable=SC2086 # stage list is a word list by design
    set -- $ALL_STAGES
fi
for stage in "$@"; do
    case " $ALL_STAGES " in
        *" $stage "*) run_stage "$stage" ;;
        *) echo "unknown stage: $stage (expected one of: $ALL_STAGES)" >&2; exit 2 ;;
    esac
done
report
