#!/bin/sh
# Repository health check: format, vet, full tests (the benchmark
# module's own included), a 10 s fuzz smoke of each of the four file
# decoders (checkpoint, scenario, fault plan, workload plan), of the
# mark index behind the duplicate caches and the query ledger, of the
# telemetry collector's chunked request log, of the duplicate index and
# of the AODV route table, the race
# detector over every package (with -short, so the checker's seed sweep
# runs once, without it), a smoke of the unit benchmarks, and the count
# of non-test Go lines outside benchmark/ beside the line counts of
# EXPERIMENTS.md and DESIGN.md. It fails on a heading in either document
# that names a PR: both describe the simulator as it is, and a
# performance change adds rows to EXPERIMENTS.md's trajectory table, not
# a section.
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
#
# `./check.sh salt` runs the short suite's tests (not the Example_
# outputs) in two equally valid worlds: a build-time salt
# (internal/sim.streamSalt) is XORed into every derived random-stream
# seed. A test must hold for the property it names, not for the seed;
# the byte-pinned ones (golden fixtures, report, metrics stream) skip.
set -e
cd "$(dirname "$0")"

if [ "$1" = "salt" ]; then
	for salt in 1 3; do
		echo "== short suite at stream salt $salt =="
		go test -short -run '^Test' -ldflags="-X=manetp2p/internal/sim.streamSalt=$salt" ./...
	done
	echo "salted suite passed"
	exit 0
fi

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

# The scenario flags are declared once, in cmd/internal/scenarioflag,
# with their override rule. A command declaring one of them itself is a
# second definition that the rule, -h's defaults and the other commands
# would not follow.
echo "== seam lint (scenario flags declared only in cmd/internal/scenarioflag) =="
declared=$(grep -rnE '\.(String|Int|Int64|Float64|Bool|Duration|Var|Func)\("(config|nodes|alg|duration|reps|seed|p2p|speed|area|range|classes|routing|traffic|faults|workload|health|peercache)"' \
	cmd --include='*.go' --exclude='*_test.go' | grep -v '^cmd/internal/scenarioflag/' || true)
if [ -n "$declared" ]; then
	echo "scenario flag declared outside cmd/internal/scenarioflag:"
	echo "$declared"
	exit 1
fi
echo ok

# A Hybrid servent's role changes in one place, setRole, which drops the
# old role's handshakes and runs the new role's steps. Any other write
# to sv.state is a role change that skips them.
echo "== seam lint (the Hybrid role is written only by setRole) =="
writers=$(find internal -name '*.go' ! -name '*_test.go' -exec awk '
	/^func / { fn = $0 }
	/sv\.state *= *[^=]/ && fn !~ /\) setRole\(/ { print FILENAME ":" FNR ": " $0 }' {} + || true)
if [ -n "$writers" ]; then
	echo "sv.state written outside setRole:"
	echo "$writers"
	exit 1
fi
echo ok

# A component's timers are package-level func(sim.Arg) callbacks with
# their owner in Arg.X (DESIGN §5). Schedule/At box a closure per call,
# a function literal is one, and a method value or a field holding one
# is the bound-callback workaround that callback replaces.
echo "== callback lint (package-level callbacks only, in the protocol packages) =="
bound=$(grep -rnE '\.(Schedule|At)\(|\.(ScheduleArg|AtArg)\(([^,()]|\([^()]*\))+, *(func *\(|[A-Za-z_]+\.[A-Za-z_.]+ *,)' \
	internal/p2p internal/aodv internal/dsr internal/dsdv internal/flood internal/route internal/manet \
	--include='*.go' --exclude='*_test.go' || true)
if [ -n "$bound" ]; then
	echo "closure, method value or Schedule/At call handed to the scheduler:"
	echo "$bound"
	exit 1
fi
echo ok

# Node ids are dense, so routers index per-node state by id, not a map (DESIGN §8); route's shared Pending is out of scope.
echo "== router-state lint (indexed by node id, no maps) =="
maps=$(grep -rn 'map\[' internal/aodv internal/dsr internal/dsdv internal/flood \
	--include='*.go' --exclude='*_test.go' || true)
if [ -n "$maps" ]; then
	echo "map in a router's state:"
	echo "$maps"
	exit 1
fi
echo ok

# Duplicate receptions stay off the kernel by construction: route.NewPlane
# installs the medium's absorber, and a cache a router declares with
# route.NewDupCache is all the router writes. A router that wires the
# absorber, reads the medium's Absorbed count or overrides Stats is a
# second place the next router would have to copy. (The conformance
# suite removes the absorber to compare against it.)
echo "== seam lint (absorption is route's, not a router's) =="
wired=$(grep -rnE 'SetAbsorber|Absorbed|Absorbs|func \(r \*Router\) Stats' \
	internal/aodv internal/dsr internal/dsdv internal/flood --include='*.go' --exclude='*_test.go' || true)
installs=$(grep -rn 'SetAbsorber(' . --include='*.go' --exclude='*_test.go' |
	grep -vE '^\./internal/(radio/radio|route/plane|netif/conformance/conformance)\.go:' || true)
if [ -n "$wired$installs" ]; then
	echo "absorption wired outside route.NewPlane:"
	echo "$wired$installs"
	exit 1
fi
echo ok

# A router writes only its protocol: route.Core is its Send (the
# self-delivery and down-sender rule, then the Route hook) and its
# Broadcast, and its Config comes from DefaultConfig as given. A Send,
# Broadcast or withDefaults in a router package is a second copy of
# that front half, free to drift from the other routers'.
echo "== seam lint (the Protocol surface is route's) =="
surface=$(grep -rnE 'func \(r \*Router\) (Send|Broadcast)\(|withDefaults' \
	internal/aodv internal/dsr internal/dsdv internal/flood --include='*.go' --exclude='*_test.go' || true)
if [ -n "$surface" ]; then
	echo "netif.Protocol front half written by a router:"
	echo "$surface"
	exit 1
fi
echo ok

# EXPERIMENTS.md and DESIGN.md are current-state documents; the history
# of a change is its CHANGES.md line. A heading naming a PR is a diary.
echo "== document lint (no heading names a PR) =="
diaries=$(grep -nE '^#+ .*\bPRs? *[0-9]' EXPERIMENTS.md DESIGN.md || true)
if [ -n "$diaries" ]; then
	echo "heading naming a PR (add a trajectory-table row instead):"
	echo "$diaries"
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

# Every decoder that reads a file (checkpoint, scenario, fault plan,
# workload plan; the checkpoint target re-stamps the checksum on each
# mutated body, so the decoder behind it is fuzzed and not only the
# checksum), and the mark index, the request log, the duplicate index
# and the packed AODV route table against their reference models under
# an operation stream read from the fuzz bytes. Minimising a new-coverage input is capped at ten runs;
# the default (60 s per input) would eat the whole smoke on the
# kilobyte-sized scenario seeds.
fuzz_smoke() {
	echo "== fuzz smoke ($1 in $2, 10s) =="
	go test -run '^$' -fuzz "^$1\$" -fuzztime 10s -fuzzminimizetime 10x "$2"
}
fuzz_smoke FuzzReadCheckpoint .
fuzz_smoke FuzzUnmarshalScenario .
fuzz_smoke FuzzPlan ./internal/fault
fuzz_smoke FuzzPlan ./internal/workload
fuzz_smoke FuzzDupIndex ./internal/route
fuzz_smoke FuzzRouteTable ./internal/aodv
fuzz_smoke FuzzIndex ./internal/marks
fuzz_smoke FuzzRequestStore ./internal/telemetry

# The root package's 1-vs-4-worker test is what would catch duplicate-index
# state shared between concurrent replications.
echo "== go test -race -short =="
go test -race -short ./...

# Every unit benchmark for ten iterations, so each body and its end
# assertion still runs; timing is benchmark/'s job, not this smoke's.
echo "== bench smoke (unit benchmarks, 10 iterations) =="
go test -run '^$' -bench . -benchtime 10x ./internal/...

echo "all checks passed"

# The non-test line figure and the two documents' sizes, which ROADMAP
# tracks and CHANGES.md quotes.
echo "non-test Go lines outside benchmark/: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
echo "EXPERIMENTS.md lines: $(wc -l < EXPERIMENTS.md)"
echo "DESIGN.md lines: $(wc -l < DESIGN.md)"
