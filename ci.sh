#!/usr/bin/env bash
# CI gates.
#
#   ./ci.sh            per-push gate: build, full test suite, a
#                      compile check of the benches, a rustfmt check,
#                      clippy and rustdoc
#                      with warnings denied, the perfbench
#                      self-tests and pinned scale-16 digests, an
#                      apps_s16 peak-memory budget,
#                      quick-scale end-to-end
#                      repro (~1 min on one core), a traced
#                      + telemetry-sampled fig1, the small-grid
#                      oversubscription observatory, the `repro serve`
#                      lifecycle gate (submit through a live daemon,
#                      self-scrape reconciliation, clean SIGTERM), then
#                      one `repro check` over every artefact written
#   ./ci.sh nightly    full-scale gate: `repro all --scale 1` (12 GB
#                      simulated GPU, hours on one core), traced fig1 at
#                      full scale, the full oversub grid, one `repro
#                      check` over their artefacts, trend recording
#                      into nightly-out/, and the perf-regression gate
#                      (`repro regress`) over the accumulated trend —
#                      exits non-zero when a headline metric regressed.
#
# Run nightly from cron (the trend file accumulates across nights, so the
# regression baseline grows), e.g.:
#
#   7 2 * * * cd /path/to/repo && ./ci.sh nightly >> nightly-out/nightly.log 2>&1
set -euo pipefail
cd "$(dirname "$0")"

target="${1:-push}"

echo "== cargo build --release =="
cargo build --release --workspace

case "$target" in
push)
    echo "== cargo test =="
    cargo test -q --workspace

    echo "== cargo check --benches =="
    # `cargo test` never compiles the [[bench]] targets, so an API change
    # that breaks `cargo bench` would otherwise pass this gate.
    cargo check --workspace --benches --offline

    echo "== cargo fmt --check =="
    # Workspace members only: `--all` would also reformat vendor/.
    cargo fmt -- --check

    echo "== cargo clippy (warnings are errors) =="
    # Every target, tests and benches included: a lint slipped into any
    # of them fails here.
    cargo clippy --workspace --all-targets --offline -- -D warnings

    echo "== cargo doc (warnings are errors) =="
    # A doc link left dangling by a deleted or renamed item fails here.
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

    echo "== perfbench self-tests (mirror parity) =="
    # The benchmark is its own cargo package; its self-tests check the
    # traced mirror against run_prepared on small point sets.
    cargo test -q --offline --manifest-path perfbench/Cargo.toml

    echo "== perfbench pinned digests (scale-16 point sets, default seed) =="
    # At the default seed perfbench checks each workload's point-set
    # digest against its pinned value and exits 1 on a mismatch or a
    # failed point, so a change that moves scale-16 simulated output
    # fails here.
    mkdir -p ci-out
    for w in fig1_s16 apps_s16 thrash_rec_s16; do
        python3 perfbench/run.py --workload "$w" --seconds 0 | tee "ci-out/perfbench-$w.json"
    done

    echo "== apps_s16 memory budget (peak_rss_mb <= 130 MB) =="
    # The packed trace (4 bytes per access, no per-block vectors) holds
    # apps_s16 near 90 MB, where the per-block layout it replaced sat at
    # ~181 MB: slack or per-block headers coming back fail here.
    python3 -c '
import json, sys
rss = json.load(open(sys.argv[1]))["metrics"]["peak_rss_mb"]["value"]
print(f"apps_s16 peak_rss_mb {rss:.1f} MB (budget 130 MB)")
sys.exit(rss > 130)
' ci-out/perfbench-apps_s16.json

    echo "== repro all --scale 128 (quick-scale end-to-end) =="
    ./target/release/repro all --scale 128 --json --out ci-out

    echo "== repro fig1 --scale 128 --retry-crosscheck (scan vs event-driven equivalence) =="
    # Runs the event-driven replay bookkeeping and the reference rescan
    # side by side; hard asserts fire if the closed-form skip would ever
    # diverge from the scan's exact counters/buffer writes.
    ./target/release/repro fig1 --scale 128 --no-progress --retry-crosscheck \
        --out ci-out/crosscheck > /dev/null

    echo "== repro fig1 --scale 16 --trace-out --metrics-out (traced+sampled run) =="
    t0=$(date +%s.%N)
    ./target/release/repro fig1 --scale 16 --no-progress --trace-cap 8192 \
        --trace-out ci-out/trace.json --metrics-out ci-out/metrics
    t1=$(date +%s.%N)

    echo "== repro explain / lineage (render the provenance and lineage views) =="
    ./target/release/repro explain ci-out/metrics > ci-out/explain.txt
    ./target/release/repro lineage ci-out/metrics > ci-out/lineage.txt
    ./target/release/repro bench-append ci-out/BENCH_hotpaths.json \
        fig1_scale16_traced "$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')"

    echo "== repro oversub --grid small (oversubscription observatory) =="
    # The push gate sweeps the small ratio×policy grid (2 workloads ×
    # all 4 eviction policies × 4 ratios) and renders the thrash-cliff
    # map with per-cliff root-cause diffs.
    ./target/release/repro oversub --grid small --scale 128 --no-progress \
        --out ci-out/oversub --metrics-out ci-out/oversub-metrics > ci-out/oversub.txt
    ./target/release/repro report ci-out/oversub-metrics > ci-out/oversub-report.txt
    # The fig1 and oversub ledgers merged and diffed: runs the checked
    # Attribution::merge and the JSON path over real artefacts.
    ./target/release/repro explain --diff ci-out/metrics ci-out/oversub-metrics --json \
        > ci-out/explain-diff.json

    echo "== repro serve lifecycle gate (submit, scrape, --check, clean SIGTERM) =="
    # Daemon on a temp socket; `repro submit` drives a quick fig1 through
    # it; `serve --check` self-scrapes /metrics twice and reconciles the
    # live exposition against the daemon's ledger and the on-disk
    # artefact counters; SIGTERM must exit 0 with the event log and a
    # final exposition snapshot flushed.
    rm -rf ci-out/serve-out ci-out/serve.sock
    ./target/release/repro serve --socket ci-out/serve.sock \
        --out ci-out/serve-out > ci-out/serve.log 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 100); do [ -S ci-out/serve.sock ] && break; sleep 0.1; done
    [ -S ci-out/serve.sock ] || { echo "serve daemon never bound its socket" >&2; exit 1; }
    ./target/release/repro submit ci-out/serve.sock fig1 --scale 128 > ci-out/serve-table.txt
    # Two checks = two scrapes: exercises both the reconciliation and the
    # monotone scrape counter.
    ./target/release/repro serve --check ci-out/serve.sock
    ./target/release/repro serve --check ci-out/serve.sock
    kill -TERM "$serve_pid"
    wait "$serve_pid"   # propagates the daemon's exit status: must be 0
    for f in ci-out/serve-out/serve-events.tsv ci-out/serve-out/serve.prom \
             ci-out/serve-out/req0001-fig1/table.txt; do
        [ -f "$f" ] || { echo "serve shutdown did not flush $f" >&2; exit 1; }
    done

    echo "== repro check (every artefact above, re-derived from disk) =="
    # Trace invariants, sample-CSV schema + attribution ledger, lineage
    # vs sample CSVs, every exposition, and the oversub heatmaps vs the
    # knee detector and their expositions. The paths are explicit
    # because ci-out/ persists between runs.
    ./target/release/repro check ci-out/trace.json ci-out/metrics ci-out/oversub \
        ci-out/oversub-metrics ci-out/serve-out
    ;;
nightly)
    echo "== repro all --scale 1 (full-scale end-to-end, telemetry-sampled) =="
    t0=$(date +%s.%N)
    ./target/release/repro all --scale 1 --json --no-progress --out nightly-out \
        --metrics-out nightly-out/metrics
    t1=$(date +%s.%N)
    ./target/release/repro explain nightly-out/metrics > nightly-out/explain.txt
    ./target/release/repro lineage nightly-out/metrics > nightly-out/lineage.txt
    ./target/release/repro bench-append nightly-out/BENCH_hotpaths.json \
        all_scale1 "$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')"

    echo "== repro fig1 --scale 1 --trace-out (traced full-scale) =="
    # --json gives the traced run its own perf record (wall *and*
    # faults_per_sec), imported below under the fig1_scale1_traced series
    # name — so the nightly trend gates throughput, not just wall ms.
    ./target/release/repro fig1 --scale 1 --no-progress --trace-cap 8192 \
        --trace-out nightly-out/trace.json --json --out nightly-out/fig1-traced

    echo "== repro oversub (full-grid oversubscription observatory) =="
    # Every workload × every eviction policy × the full 9-point ratio
    # grid (288 points); the cliff positions (cliff_min_ratio /
    # cliff_mean_ratio) join the nightly trend below — a cliff sliding
    # toward 1.0× fails `repro regress`.
    ./target/release/repro oversub --scale 16 --no-progress --json \
        --out nightly-out/oversub --metrics-out nightly-out/oversub-metrics \
        > nightly-out/oversub.txt
    ./target/release/repro report nightly-out/oversub-metrics > nightly-out/oversub-report.txt

    echo "== repro check (every nightly artefact, re-derived from disk) =="
    ./target/release/repro check nightly-out/metrics nightly-out/trace.json \
        nightly-out/oversub nightly-out/oversub-metrics

    echo "== perf-regression gate over the nightly trend =="
    # The trend file persists across nights (it lives outside the per-run
    # report): import tonight's headline metrics, then gate the newest
    # entry of every series against the median of its history.
    ./target/release/repro trend-import nightly-out/ci_trend.json \
        nightly-out/BENCH_hotpaths.json fig1
    ./target/release/repro trend-import nightly-out/ci_trend.json \
        nightly-out/BENCH_hotpaths.json table2
    # The bench-appended wall-time series and the sweep scheduler's
    # straggler bound (max_straggler_ms on the experiment records) ride
    # along in the same trend, so a hot-path layout or scheduler change
    # can't silently regress the big single points either.
    ./target/release/repro trend-import nightly-out/ci_trend.json \
        nightly-out/BENCH_hotpaths.json all_scale1
    # The traced fig1 series imports its full perf record (renamed so its
    # history stays distinct from the untraced fig1 series): wall_seconds
    # AND faults_per_sec are both gated by `repro regress`.
    ./target/release/repro trend-import nightly-out/ci_trend.json \
        nightly-out/fig1-traced/BENCH_hotpaths.json fig1 fig1_scale1_traced
    # The observatory's thrash-cliff positions enter the trend from the
    # oversub run's own perf report; `repro regress` gates them in the
    # down-is-bad direction alongside the throughput series.
    ./target/release/repro trend-import nightly-out/ci_trend.json \
        nightly-out/oversub/BENCH_hotpaths.json oversub
    ./target/release/repro regress nightly-out/ci_trend.json
    ;;
*)
    echo "ci.sh: unknown target '$target' (expected nothing or 'nightly')" >&2
    exit 2
    ;;
esac

echo "== ci.sh ($target): all green =="
