GO ?= go

# The fuzz and bench targets below are the CI gates, spelled here and
# nowhere else: `make ci` runs every gate, and .github/workflows/ci.yml
# calls the smoke by script and the rest through the fuzz-all and
# bench-all aggregates. A new fuzz or bench gate joins its list here.
# The drills are in-process tests that `race` runs: the chaos proxy
# (TestPipelineZeroLossZeroDup), failover, election and fencing
# (TestFailoverRounds), overload and the memory watermark
# (TestOverloadRounds), anomaly detection through faults
# (TestAnomalyRounds) and every crash point of one node (TestCrashPoints).
# What those drills claim (no acked batch lost or doubled, one
# lease-holder per epoch, follower equals primary, analytics equal a
# fault-free control, the frontier never regresses, no shipper gives up)
# is stated once, in internal/serve/invariants_test.go.
# fmt-check fails on any file gofmt would rewrite.
# smoke is the one drill that runs the real binaries and SIGKILLs one.
# CI runs the microbenchmarks at BENCHTIME=0.5s. bench-selftest is not in
# a list: both run it straight after the build, because bench/ compiles
# against the tree and a symbol it uses going missing should fail in the
# first minute, not the last step.
FUZZ_TARGETS = fuzz-wal fuzz-wal-bitflip fuzz-repl fuzz-frontier fuzz-epoch fuzz-block-chunk fuzz-block-index fuzz-block-ref fuzz-spec fuzz-admit fuzz-elect fuzz-anomaly-rules fuzz-anomaly-fingerprint fuzz-anomaly-state fuzz-codec fuzz-snapshot fuzz-sort fuzz-bdt
BENCH_TARGETS = bench bench-block bench-codec bench-wal bench-snapshot bench-tsdb bench-mlearn
SMOKE_TARGETS = smoke

.PHONY: all build fmt-check vet test race bench-e2e bench-compare bench-selftest block-check obs-check ci clean fuzz-all bench-all $(FUZZ_TARGETS) $(BENCH_TARGETS) $(SMOKE_TARGETS)

BENCHTIME ?= 1s
gobench = $(GO) test -run xxx -bench $(1) -benchmem -benchtime=$(BENCHTIME) $(2)
# $(call gofuzz,FuzzTarget,time,package)
gofuzz = $(GO) test -run xxx -fuzz $(1) -fuzztime $(2) $(3)

all: build

build:
	$(GO) build ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Serving-layer benchmarks (tsdb write hot path + predict handler).
bench:
	$(GO) test -run xxx -bench 'IngestBatch|PredictEndpoint' -benchtime=$(BENCHTIME) .

# Read-path benchmarks: Gorilla encode cost + bytes/sample, chunk decode
# (ns/point), the range-scan hot path behind /v1/query/range; the
# fleet-wide 6 h distribution pull behind /v1/query/distribution
# (blocks only, straddling the frontier, head only) and the head half of
# it on one ring (window found by search, and by filtering when the ring
# holds a late arrival); the sort under it (counting for quantised
# readings, radix for continuous ones, and what a failed counting attempt
# costs) against sort.Float64s; and the range response's append encoder
# against encoding/json.
bench-block:
	$(call gobench,'BlockEncode|ChunkDecode|RangeScan',./internal/block/)
	$(call gobench,'Distribution|RingWindow',./internal/tsdb/)
	$(call gobench,'SortFloat64s',./internal/stats/)
	$(call gobench,'RangeResponseEncode',./internal/serve/)

# Ingest-codec microbenchmarks on a 512-sample body of 0.1 W readings
# in the encoder's own layout, so they time the codec's fast paths: the
# single-pass scanner against the encoding/json decode it replaced, and
# the append encoder of the WAL record against json.Marshal.
bench-codec:
	$(call gobench,'BatchDecode|WALRecord',./internal/trace/)

# WAL microbenchmarks on 24 KB records: Append (0 allocs/op — the frame
# is encoded into a buffer the log owns), ReadRange of the newest record
# of a 90 %-full 8 MiB segment (what the replication source does per
# burst), and one full Replay of that segment.
bench-wal:
	$(call gobench,'Append|ReadRangeTail|Replay',./internal/wal/)

# Snapshot microbenchmarks on the end-to-end benchmark's store (1,024
# nodes x 500 points in 1,440-point rings): ExportState is the time the
# apply lock is held, SnapshotEncode the CPU a snapshot costs after
# that, SnapshotDecode the decode share of a clean restart (binary image
# vs the all-JSON one it replaced), RecoverClean the whole restart.
# RecoverCrash is the other restart, a replay of 1,000 records x 512
# samples with no snapshot, on one core and on two: replay decodes the
# next record while the previous one applies, so -2 should read about
# 40 % below -1, and -1 no worse than a replay without the hand-off.
bench-snapshot:
	$(call gobench,'ExportState',./internal/tsdb/)
	$(call gobench,'SnapshotEncode|SnapshotDecode|RecoverClean',./internal/serve/)
	$(GO) test -run xxx -bench 'RecoverCrash' -benchmem -benchtime=$(BENCHTIME) -cpu 1,2 ./internal/serve/

# TSDB write-path microbenchmarks in steady state (rings, jobs and a full
# open-minute window exist; 0 allocs/op): Append on the batches the fleet
# ships (512 distinct nodes, jobs on contiguous runs of 1-64 nodes) and
# on the worst case for its per-run job pass (a new job every sample),
# plus ExportState, which reads everything Append writes.
bench-tsdb:
	$(call gobench,'AppendFleet|AppendInterleaved|ExportState',./internal/tsdb/)

# The paper's study, microbenchmarked (Emmy at a tenth of the study):
# BDTFit on 5,000 synthetic jobs (about 125 allocs/op: the columns, the
# counting orders and the nodes; thousands mean a node copies or sorts
# its rows again), KNNPredict (one selection pass over the user's
# history, 0 allocs/op), and, on one core and on two, EvaluateAll (ten
# splits x three models, drawn and fitted concurrently: -2 should read
# about a third below -1, and -1 no worse than walking the splits in
# turn) and internal/core's AnalyzeAll (Figs. 1-13: AnalyzeSystem, then
# the other nine analyses at once, so Analyze uses both cores and -2
# should read well below -1).
bench-mlearn:
	$(call gobench,'BDTFit|KNNPredict',./internal/mlearn/)
	$(GO) test -run xxx -bench 'EvaluateAll' -benchmem -benchtime=$(BENCHTIME) -cpu 1,2 ./internal/mlearn/
	$(GO) test -run xxx -bench 'AnalyzeAll' -benchmem -benchtime=$(BENCHTIME) -cpu 1,2 ./internal/core/

# The end-to-end + per-layer benchmark (bench/README.md): every workload,
# 5 untraced runs and one traced run each, about 12 minutes.
BENCH_OUT ?= bench/out/all.json
bench-e2e:
	mkdir -p $(dir $(BENCH_OUT))
	bash bench/run.sh -all -out $(BENCH_OUT)

# Compare two bench-e2e result sets: make bench-compare A=old.json B=new.json
# (exit 1 on any `worse`).
bench-compare:
	bash bench/run.sh -compare $(A) $(B)

# The benchmark harness's own tests; bench/ is a module of its own, so
# the root `go test ./...` does not reach them.
bench-selftest:
	cd bench && $(GO) test ./...

# Fuzz the ingest codec against encoding/json: whatever the scanner
# accepts decodes to the same value, no input panics or over-reads, and
# the encoder's bytes equal json.Marshal's; then number by number,
# scanFloat against strconv.ParseFloat and AppendJSONFloat against
# json.Marshal, on and off the 0.1 W grid.
fuzz-codec:
	$(call gofuzz,FuzzBatchCodec,30s,./internal/trace/)
	$(call gofuzz,FuzzJSONNumber,15s,./internal/trace/)

# Fuzz the snapshot-image decoder and the restore behind it: no panic,
# no allocation beyond a fixed multiple of the input, and whatever
# decodes keeps ascending node ids and rings within the ring length.
# Seeds are whole images, so the minimizer gets a short leash.
fuzz-snapshot:
	$(call gofuzz,FuzzSnapshotDecode,20s -fuzzminimizetime 2s,./internal/serve/)

# Fuzz BDT.Fit against the fit it replaced (every node sorting its own
# rows, stably): small training sets full of equal feature values, equal
# user means and MinLeaf edges must save the same tree byte for byte, and
# the saved tree must load and predict as the fitted one.
fuzz-bdt:
	$(call gofuzz,FuzzBDTFit,15s,./internal/mlearn/)

# Fuzz SortFloat64s against slices.Sort on inputs read as float64s, short
# and repeated up to a length that takes the counting path: the same
# order on every path, NaNs first.
fuzz-sort:
	$(call gofuzz,FuzzSortFloat64s,15s,./internal/stats/)

# End-to-end smoke: generate a small dataset, export a model, start
# powserved on a random port, replay the dataset with powload, and check
# zero dropped batches + offline/online prediction parity.
smoke:
	./scripts/smoke.sh

# Fuzz the WAL segment reader: arbitrary corruption must yield clean
# truncation or a typed error, never a panic or a silently wrong record.
fuzz-wal:
	$(call gofuzz,FuzzSegmentRead,30s,./internal/wal/)

# Fuzz WAL recovery under the fault-injection layer: a single-byte flip
# anywhere in a sealed segment must recover to an exact prefix of the
# original records.
fuzz-wal-bitflip:
	$(call gofuzz,FuzzWALBitFlip,30s,./internal/wal/)

# Fuzz the replication stream reader: arbitrary bytes must yield clean
# frames, ErrTorn, or a typed corruption error — never a panic.
fuzz-repl:
	$(call gofuzz,FuzzReplStream,30s,./internal/repl/)

# Fuzz the block chunk decoder, the block-file index/read path, and the
# word-buffered bit reader with the decoder on it: arbitrary bytes must
# decode or error — never panic or over-read — and the last two must
# agree with the byte-wise reference kept in the tests.
fuzz-block-chunk:
	$(call gofuzz,FuzzChunkDecode,15s,./internal/block/)

fuzz-block-index:
	$(call gofuzz,FuzzBlockIndex,15s,./internal/block/)

fuzz-block-ref:
	$(call gofuzz,FuzzBitReader,10s,./internal/block/)
	$(call gofuzz,FuzzDecodeAgainstReference,10s,./internal/block/)

# Fuzz the key=value grammar every spec string shares: the tokenizer
# never panics and Parse(String()) is the identity on a table of every
# field kind; ParseBytes agrees with the suffix-table parser it replaced.
fuzz-spec:
	$(call gofuzz,FuzzPairs,15s,./internal/spec/)
	$(call gofuzz,FuzzParseBytes,10s,./internal/spec/)

# Fuzz the admission-spec parser: arbitrary specs must parse or error —
# never panic — and every accepted spec must round-trip through String.
fuzz-admit:
	$(call gofuzz,FuzzParseConfig,15s,./internal/admit/)

# Fuzz the election and frontier wire decoders: arbitrary bytes from an
# untrusted peer must decode or error — never panic — and every
# accepted message must survive an encode/decode round trip.
fuzz-elect:
	$(call gofuzz,FuzzElectDecode,15s,./internal/elect/)

fuzz-frontier:
	$(call gofuzz,FuzzFrontierDecode,15s,./internal/repl/)

fuzz-epoch:
	$(call gofuzz,FuzzEpochFile,15s,./internal/repl/)

# Fuzz the anomaly layer: the rule-spec parser must parse or error
# (and every accepted spec must round-trip through String), and
# fingerprint / engine-state JSON from a snapshot or peer must restore
# or error — never panic, never poison the engine.
fuzz-anomaly-rules:
	$(call gofuzz,FuzzParseRules,15s,./internal/anomaly/)

fuzz-anomaly-fingerprint:
	$(call gofuzz,FuzzFingerprintDecode,15s,./internal/anomaly/)

fuzz-anomaly-state:
	$(call gofuzz,FuzzEngineStateDecode,15s,./internal/anomaly/)

# Block-store gate: vet plus the block and tsdb packages (encode/decode
# losslessness, rollup exactness, head/block merge, crash frontier)
# under the race detector.
block-check:
	$(GO) vet ./...
	$(GO) test -race -count=1 ./internal/block/ ./internal/tsdb/

# Observability gate: the obs package under the race detector
# (lock-free histogram Observe vs. concurrent /metrics scrapes), and
# the serving layer's exposition-format lint + legacy-name regression.
obs-check:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -count=1 -run 'TestMetrics|TestIngestTrace|TestTracePropagates' ./internal/serve/

fuzz-all: $(FUZZ_TARGETS)

bench-all: $(BENCH_TARGETS)

ci: fmt-check vet build bench-selftest race obs-check block-check $(SMOKE_TARGETS) fuzz-all bench-all
