#!/usr/bin/env bash
# bench_alloc.sh — record the allocation baseline for the hot paths.
#
# Runs the BenchmarkAllocs suite with -benchmem and distils the numbers
# into BENCH_alloc.json (ns/op, B/op, allocs/op per sub-benchmark). Two
# gates make it CI's allocation-regression check:
#
#   - The steady-state paths (coalesce-event, mshr-cycle, hmc-submit-pop)
#     must report 0 allocs/op.
#   - sim-run-cold — a whole simulation with a fresh seed on a reused
#     Scratch, building its machine from the recycled arena — must stay
#     at or below 160 allocs/op. It measures 142: the component graph
#     and the workload generators, with every pooled buffer coming back
#     from the arena. The budget catches any per-run buffer that stops
#     being recycled.
#
# The script exits non-zero if either gate fails.
#
# Usage: scripts/bench_alloc.sh [benchtime]
#   benchtime: go test -benchtime value (default 1000x)
set -euo pipefail

cd "$(dirname "$0")/.."
benchtime="${1:-1000x}"
cold_budget=160
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkAllocs' -benchmem \
	-benchtime "$benchtime" . | tee "$raw"

awk -v benchtime="$benchtime" -v coldBudget="$cold_budget" '
/^BenchmarkAllocs\// {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^BenchmarkAllocs\//, "", name)
	nsop[name] = $3
	bop[name] = $5
	aop[name] = $7
	order[n++] = name
}
END {
	if (n == 0) { print "no BenchmarkAllocs output" > "/dev/stderr"; exit 1 }
	print  "{"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	print  "  \"benches\": {"
	for (i = 0; i < n; i++) {
		name = order[i]
		printf "    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			name, nsop[name], bop[name], aop[name], (i < n - 1) ? "," : ""
	}
	print  "  },"
	# Hard gates: per-event paths allocation-free; the whole-run cold
	# path on a reused arena within its budget.
	fail = 0
	for (i = 0; i < n; i++) {
		name = order[i]
		if (name == "sim-run-cold") {
			if (aop[name] + 0 > coldBudget) {
				printf "ALLOC REGRESSION: sim-run-cold = %s allocs/op, budget %d\n", \
					aop[name], coldBudget > "/dev/stderr"
				fail = 1
			}
			continue
		}
		if (aop[name] + 0 != 0) {
			printf "ALLOC REGRESSION: %s = %s allocs/op, want 0\n", name, aop[name] > "/dev/stderr"
			fail = 1
		}
	}
	printf "  \"zero_alloc_gate\": \"%s\",\n", fail ? "FAIL" : "pass"
	printf "  \"sim_run_cold_budget\": %d\n", coldBudget
	print  "}"
	exit fail
}' "$raw" >BENCH_alloc.json

echo "wrote BENCH_alloc.json"
