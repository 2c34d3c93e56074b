// Command powbench is the benchmark every performance claim about this
// repository is measured with: it boots the real internal/serve server
// in-process on a loopback listener, drives it with a seeded fleet,
// checks every output against a reference, and reports end-to-end and
// per-layer metrics by name. See ../README.md.
//
//	powbench --workload ingest-wal --seed 42 --seconds 10 --trace 0   one run, result JSON on the last line
//	powbench -all -seed 42 -out set.json                              every workload, untraced and traced
//	powbench -compare A.json B.json                                    do two sets agree?
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hpcpower/internal/wal"
)

// Fixed work counts. They are constants so that two commits can never
// be measured with different amounts of work; a round is sized to take
// roughly a second on two cores, so a 10 s run holds about ten rounds.
const (
	roundIngestMem  = 2400 // batches per round, both agents together
	roundIngestWAL  = 1000
	roundIngestRepl = 330  // one WAL segment, see walSegmentBytes
	roundQueries    = 200  // reader queries per round: two decks, see deckSize
	recoverBatches  = 1000 // WAL records in the recovery images
	analyzeScale    = 0.1  // share of the five-month study generated
)

var workloads = []workloadDef{
	{
		Name: "ingest-mem", Unit: "sample", Op: "POST /v1/samples -> 202, one 512-sample batch",
		Why:   "no WAL, no detectors: HTTP, JSON decode, admit and tsdb.Append do all the work, so a wire-codec change shows here and a WAL change does not",
		Setup: setupIngest(ingestCfg{round: roundIngestMem}),
	},
	{
		Name: "ingest-wal", Unit: "sample", Op: "POST /v1/samples -> 202 once logged",
		Why:   "durable ingest with detectors on: WAL record encode, append and detector eval join the ack path; fsync runs in the background (-fsync interval) because this disk's fsync time is bimodal",
		Setup: setupIngest(ingestCfg{durable: true, policy: wal.SyncInterval, anomaly: true, round: roundIngestWAL}),
	},
	{
		Name: "ingest-repl-sync", Unit: "sample", Op: "POST /v1/samples -> 202 after the follower applied it",
		Why:   "WAL with fsync per ack (-fsync batch) plus an in-process follower and semi-sync acks: the fsync and the replication hop are on the blocking path; repl.sync_wait_us is the hop's price",
		Setup: setupIngest(ingestCfg{durable: true, policy: wal.SyncBatch, anomaly: true, follower: true, round: roundIngestRepl}),
	},
	{
		Name: "query-mixed", Unit: "query", Op: "GET /v1/query/range, 6 h of raw points of one node",
		Why:   "dashboard reads over 3 days (2.5 in Gorilla blocks, half a day in the head) beside an open-loop writer on the same tsdb shards: block, merge and JSON encode dominate, ingest layers idle",
		Setup: setupQuery,
	},
	{
		Name: "recover-crash", Unit: "sample", Op: "NewDurable + Recover of a crash image (full WAL replay)",
		Why:   "restart after a crash with no snapshot: WAL read, record decode and re-apply, the time an operator waits; uses the codecs in the read direction",
		Setup: setupRecover(false),
	},
	{
		Name: "recover-clean", Unit: "sample", Op: "NewDurable + Recover of a clean image (snapshot load)",
		Why:   "restart after a clean shutdown: snapshot read, decode and state install with nothing to replay; a snapshot-codec change shows here and not on recover-crash",
		Setup: setupRecover(true),
	},
	{
		Name: "analyze-offline", Unit: "job", Op: "Analyze both systems + Compare + EvaluatePredictors + render",
		Why:   "the paper's own batch analysis (powreport): gen, core, stats and mlearn do all the work and no serving layer runs, so a serving change must leave it flat",
		Setup: setupAnalyze,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// traceDir is where a traced run leaves its spans, trace-<workload>.json.
const traceDir = "bench/out"

// runDir makes the scratch directory of this process inside the
// checkout the benchmark runs from.
func runDir() (string, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run once (see bench/README.md)")
		seed     = flag.Uint64("seed", 42, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		traced   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		all      = flag.Bool("all", false, "run every workload -repeat times untraced and once traced, print and write a set")
		repeat   = flag.Int("repeat", 5, "with -all: untraced runs per workload, each with its own seed")
		out      = flag.String("out", "", "with -all: file the set is written to")
		compare  = flag.Bool("compare", false, "compare two sets: powbench -compare A.json B.json")
		mani     = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	)
	flag.Parse()
	err := func() error {
		switch {
		case *mani:
			data, err := manifest()
			if err == nil {
				_, err = os.Stdout.Write(data)
			}
			return err
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two set files")
			}
			return compareSets(flag.Arg(0), flag.Arg(1), os.Stdout)
		case *all:
			return runAll(*seed, *seconds, *repeat, *out, os.Stdout)
		case *workload != "":
			if *traced != 0 && *traced != 1 {
				return fmt.Errorf("-trace is 0 or 1")
			}
			dir, err := runDir()
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			return runOne(*workload, *seed, *seconds, *traced == 1, dir, traceDir, os.Stdout)
		default:
			flag.Usage()
			return fmt.Errorf("nothing to do: pass -workload, -all, -compare or -manifest")
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "powbench:", err)
		os.Exit(1)
	}
}
