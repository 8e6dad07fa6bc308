#!/bin/sh
# Repository health check: format, vet, full tests (the benchmark
# module's own included), a 10 s fuzz smoke of each of the four file
# decoders, the race detector over every package, a smoke of the unit
# benchmarks, and the count of non-test Go lines outside benchmark/.
#
# `./check.sh selfcheck` runs the runtime invariant suite and the
# determinism self-audit (p2psim -selfcheck) across all four algorithms:
# fault-free, under the scripted partition+crash plan in
# testdata/selfcheck_faults.json, under the full workload plan in
# testdata/selfcheck_workload.json (which arms the demand-conservation
# rules), and once more with the peer-cache extension enabled; then
# Regular once over each of DSR, DSDV and Flood, so the stepping audit
# compares those routers' records too. Exits nonzero on any violation.
#
# `./check.sh checkpoint` runs the full golden-fixture checkpoint
# round-trip: every committed fixture (including testdata/golden/
# workload.json) is run with a checkpoint, the file a process killed
# after the first replication leaves behind is resumed in a fresh
# process (the one-replication routing fixtures load their finished
# file), and the resumed report must match the fixture byte for byte.
# Set MANETP2P_CKPT_ARTIFACT to a directory to keep the partial workload
# checkpoint — one of two replications stored (CI uploads it as an
# artifact).
set -e
cd "$(dirname "$0")"

if [ "$1" = "selfcheck" ]; then
	for alg in basic regular random hybrid; do
		echo "== selfcheck $alg (no faults) =="
		go run ./cmd/p2psim -selfcheck -alg "$alg" -nodes 30 -duration 600 -reps 2
		echo "== selfcheck $alg (partition + crash) =="
		go run ./cmd/p2psim -selfcheck -alg "$alg" -nodes 30 -duration 600 -reps 2 \
			-faults testdata/selfcheck_faults.json
		echo "== selfcheck $alg (scripted workload) =="
		go run ./cmd/p2psim -selfcheck -alg "$alg" -nodes 30 -duration 600 -reps 2 \
			-workload testdata/selfcheck_workload.json
		echo "== selfcheck $alg (peer cache) =="
		go run ./cmd/p2psim -selfcheck -alg "$alg" -nodes 30 -duration 600 -reps 2 \
			-peercache -faults testdata/selfcheck_faults.json
	done
	for routing in dsr dsdv flood; do
		echo "== selfcheck regular over $routing =="
		go run ./cmd/p2psim -selfcheck -alg regular -routing "$routing" -nodes 30 -duration 600 -reps 2
	done
	echo "selfcheck passed"
	exit 0
fi

if [ "$1" = "checkpoint" ]; then
	echo "== golden checkpoint/resume round-trip (fresh-process) =="
	go test -run TestCheckpointGoldenFixtures -ckpt-golden -count=1 .
	echo "checkpoint round-trip passed"
	exit 0
fi

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "needs gofmt:"
	echo "$unformatted"
	exit 1
fi
echo ok

echo "== go vet =="
go vet ./...
echo ok

# Go randomizes map iteration order per range statement, so a bare
# range over a servent map is a determinism bug waiting to happen (the
# peer-cache eviction tie-break was exactly this). Every such loop must
# either sort before acting or carry a one-line justification that the
# body is order-insensitive.
echo "== map-iteration lint (servent maps) =="
unjustified=$(grep -rn -E 'range +[A-Za-z_.[]+\.(conns|pending|seen|peerCache)\b' \
	internal/p2p internal/manet --include='*.go' |
	grep -vE '// *(sorted|commutative)' || true)
if [ -n "$unjustified" ]; then
	echo "range over a servent map without a '// sorted' or '// commutative' justification:"
	echo "$unjustified"
	exit 1
fi
echo ok

# Routers and mobility models are named, parsed, range-checked and
# constructed from one table each (internal/manet/scenario.go). A case
# on a Routing*/Mobility* constant in the commands or in manet is a
# second place the next router or model would have to be added.
echo "== seam lint (no switch over routing or mobility kinds) =="
dispatch=$(grep -rnE 'case +((manet|manetp2p)\.)?(Routing|Mobility)[A-Z]' cmd internal/manet --include='*.go' || true)
if [ -n "$dispatch" ]; then
	echo "dispatch on a routing or mobility kind outside its table:"
	echo "$dispatch"
	exit 1
fi
echo ok

# The four overlay algorithms are values in internal/p2p's algorithms
# table, each in its own file; the servent skeleton, the checker, viz and
# the commands ask them (hooks, Symmetric, CheckView) instead of testing
# which one runs. A comparison or case on an algorithm is a second place
# the next algorithm would have to be added.
echo "== seam lint (no dispatch on the overlay algorithm) =="
dispatch=$(grep -rnE 'sv\.alg *(==|!=)|switch sv\.alg|case +((p2p|manetp2p)\.)?(Basic|Regular|Random|Hybrid)\b|(==|!=) *((p2p|manetp2p)\.)?(Basic|Regular|Random|Hybrid)\b' \
	internal cmd --include='*.go' --exclude='*_test.go' || true)
if [ -n "$dispatch" ]; then
	echo "dispatch on an overlay algorithm outside its table:"
	echo "$dispatch"
	exit 1
fi
echo ok

echo "== go build =="
go build ./...
echo ok

echo "== go test =="
go test ./...

# The benchmark is its own module (benchmark/go.mod), so ./... above
# does not reach it. Its tests replay a golden fixture through the root
# package and fold profile stacks by root-package function names, so
# they gate root-package refactors.
echo "== benchmark module: go vet + go test =="
go vet -C benchmark ./...
go test -C benchmark ./...

# Every decoder that reads a file: checkpoint container, scenario, fault
# plan, workload plan. Minimising a new-coverage input is capped at ten
# runs; the default (60 s per input) would eat the whole smoke on the
# kilobyte-sized scenario seeds.
fuzz_smoke() {
	echo "== fuzz smoke ($1 in $2, 10s) =="
	go test -run '^$' -fuzz "^$1\$" -fuzztime 10s -fuzzminimizetime 10x "$2"
}
fuzz_smoke FuzzRead ./internal/checkpoint
fuzz_smoke FuzzUnmarshalScenario .
fuzz_smoke FuzzPlan ./internal/fault
fuzz_smoke FuzzPlan ./internal/workload

# The root package's 1-vs-4-worker test is what would catch duplicate-index
# state shared between concurrent replications.
echo "== go test -race =="
go test -race ./...

# Every unit benchmark for ten iterations, so each body and its end
# assertion still runs; timing is benchmark/'s job, not this smoke's.
echo "== bench smoke (unit benchmarks, 10 iterations) =="
go test -run '^$' -bench . -benchtime 10x ./internal/...

echo "all checks passed"

# The figure ROADMAP item 3 tracks and CHANGES.md quotes.
echo "non-test Go lines outside benchmark/: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
