#!/usr/bin/env bash
# End-to-end CLI smoke test: dcprof_measure writes a measurement
# directory, dcprof_analyze consumes it. Asserts exit codes, that the
# measurement directory has profiles, and that --metrics-json wrote
# non-empty JSON from both tools, and that an unknown backend name is
# rejected.
#
#   cli_smoke.sh <dcprof_measure> <dcprof_analyze>
set -u

measure=$1
analyze=$2

tmpdir=$(mktemp -d) || exit 1
trap 'rm -rf "$tmpdir"' EXIT

fail() {
  echo "cli_smoke FAIL: $*" >&2
  exit 1
}

"$measure" streamcluster "$tmpdir/meas" --threads 4 --period 256 \
    --metrics-json "$tmpdir/measure-metrics.json" \
    || fail "dcprof_measure exited $?"

ls "$tmpdir/meas"/*.dcpf >/dev/null 2>&1 \
    || fail "no .dcpf files in measurement dir"

"$analyze" "$tmpdir/meas" --overhead \
    --metrics-json "$tmpdir/analyze-metrics.json" \
    > "$tmpdir/analyze.out" \
    || fail "dcprof_analyze exited $?"

[ -s "$tmpdir/analyze.out" ] || fail "dcprof_analyze printed nothing"

for json in "$tmpdir/measure-metrics.json" "$tmpdir/analyze-metrics.json"; do
  [ -s "$json" ] || fail "$(basename "$json") missing or empty"
  head -c1 "$json" | grep -q '{' || fail "$(basename "$json") is not JSON"
done

# An unknown backend name is a usage error (exit 2) that names the
# accepted values.
expect_backend_rejected() {
  "$@" > /dev/null 2> "$tmpdir/err"
  local rc=$?
  [ "$rc" -eq 2 ] || fail "$* exited $rc, want 2"
  grep -q 'det|sockets' "$tmpdir/err" \
      || fail "$* did not name det|sockets: $(cat "$tmpdir/err")"
}
expect_backend_rejected "$measure" streamcluster "$tmpdir/bad" \
    --backend threads
expect_backend_rejected "$analyze" "$tmpdir/meas" --whatif-backend threads

echo "cli_smoke OK"
