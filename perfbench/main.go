// Command perfbench is the repository's standing benchmark. It stands
// up the real loopback deployment (HTTP providers, durable distributors,
// optionally a shard proxy) in one process, preloads a seeded namespace,
// drives a fixed number of seeded ops through transport.Client in a
// closed loop, verifies every byte it reads, and prints its metrics with
// a JSON summary as the last line of standard output.
//
//	perfbench --workload small-churn --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a serial traced run. --repeat K runs
// the workload K times with seeds seed..seed+K-1 and prints each
// metric's median, quartiles and spread. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: small-churn, pl3-decoy-proxy or large-stream")
		seed    = flag.Int64("seed", 1, "seed of the generated namespace, ops and content")
		seconds = flag.Int("seconds", 20, "run length; the op budget is the workload's nominal rate times this")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced serial run")
		workdir = flag.String("workdir", ".bench_build", "directory for WAL directories and the span file")
		repeat  = flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print spreads")
		bench   = flag.String("benchmark", "BENCHMARK.json", "bounds file read by --repeat")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		flag.Usage()
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*repeat, *seed, *bench); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	walRoot, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(walRoot)

	ops := int(math.Round(w.opsPerSec * float64(*seconds)))
	var s summary
	if *trace == 0 {
		s, err = untracedRun(w, *seed, ops, walRoot)
	} else {
		s, err = tracedRun(w, *seed, ops, walRoot, filepath.Join(*workdir, "spans-"+w.name+".tsv"))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.RemoveAll(walRoot)
		os.Exit(1)
	}
	s.print(w)
	if !s.Correct {
		os.RemoveAll(walRoot)
		os.Exit(1)
	}
}

// rounds is how many fresh deployments an untraced run stands up.
const rounds = 5

// untracedRun splits the op budget over rounds fresh deployments,
// each under its own derived seed. setup_s and heap_live_MB are medians over the rounds and the
// latencies pool all of them; fresh rounds also cap how much metadata
// one deployment can accumulate.
func untracedRun(w *workload, seed int64, ops int, walRoot string) (summary, error) {
	var setups []time.Duration
	var all []passResult
	for r := 0; r < rounds; r++ {
		cfg := passConfig{w: w, seed: roundSeed(seed, r), ops: ops / rounds, walRoot: walRoot}
		f, gens, d, err := setUp(cfg)
		if err != nil {
			return summary{}, err
		}
		setups = append(setups, d)
		all = append(all, measure(f, gens, cfg))
		f.close()
		f.removeWAL()
		runtime.GC()
	}
	attempted, failed := 0, 0
	for _, r := range all {
		attempted += r.calls()
		failed += r.failed
	}
	return newSummary(attempted, failed, endToEnd(w, setups, all)), nil
}

// roundSeed derives the seed of round r; round 0 uses the seed itself.
func roundSeed(seed int64, r int) int64 { return seed ^ int64(mix64(0, uint64(r))>>1) }

// tracedRun runs one round's share of the op budget twice over fresh
// deployments: untraced, then traced. The trace and the counters
// give the per-layer metrics; the pair gives the tracing overhead.
func tracedRun(w *workload, seed int64, ops int, walRoot, spanFile string) (summary, error) {
	cfg := passConfig{w: w, seed: seed, ops: ops / rounds, walRoot: walRoot}
	a, err := serialPass(cfg)
	if err != nil {
		return summary{}, err
	}
	runtime.GC()
	cfg.tr = newTracer()
	b, err := serialPass(cfg)
	if err != nil {
		return summary{}, err
	}
	if err := cfg.tr.writeFile(spanFile); err != nil {
		return summary{}, err
	}
	k, err := timeKernels(w)
	if err != nil {
		return summary{}, err
	}
	return newSummary(a.calls()+b.calls(), a.failed+b.failed, perLayer(w, a, b, k)), nil
}

// serialPass is one set-up plus one serial measured pass. It closes the
// deployment, which writes the final checkpoints, and records their size.
func serialPass(cfg passConfig) (passResult, error) {
	f, gens, _, err := setUp(cfg)
	if err != nil {
		return passResult{}, err
	}
	defer f.removeWAL()
	if cfg.tr != nil {
		cfg.tr.reset()
	}
	r := measure(f, gens, cfg)
	f.close()
	for _, dir := range f.walDirs {
		r.snapBytes += lastSnapshotSize(dir)
	}
	if cfg.tr != nil {
		r.spans = cfg.tr.snapshot()
	}
	return r, nil
}

// lastSnapshotSize is the size of the newest checkpoint in a WAL dir.
func lastSnapshotSize(dir string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if len(names) == 0 {
		return 0
	}
	sort.Strings(names) // fixed-width hex LSNs sort in log order
	st, err := os.Stat(names[len(names)-1])
	if err != nil {
		return 0
	}
	return st.Size()
}

// summary is the result line the benchmark contract prescribes.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	ordered   []metric
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newSummary(attempted, failed int, ms []metric) summary {
	s := summary{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}, ordered: ms}
	for _, m := range ms {
		s.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return s
}

// print writes one line per metric, then the JSON summary line.
func (s summary) print(w *workload) {
	fmt.Printf("workload %s: %d calls, %d failed (error_rate %.6f)\n", w.name, s.Attempted, s.Failed, ratio(float64(s.Failed), float64(s.Attempted)))
	for _, m := range s.ordered {
		fmt.Printf("  %-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
