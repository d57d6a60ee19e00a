// Command ftbench is the repository benchmark. It builds, persists,
// reopens and serves the fault-tolerant labeling schemes, drives one
// workload through serve.Server.ServeHTTP in process with a single
// closed-loop client, checks every answer against an oracle of its own,
// and prints every end-to-end metric by name and unit. With -trace 1 it
// then replays the workload with spans around every call into a layer
// and prints the per-layer metrics instead.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	ftbench -dir .bench_build -workload conn-hot -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// setups is how many times a run sets the workload up from scratch and
// loadTrials how many times it restarts the server from disk; setup_s,
// setup_cpu_s and load_s report the median.
const (
	setups     = 5
	loadTrials = 11
)

// The benchmark runs on one processor. On a virtual machine whose
// hypervisor steals time from its vCPUs, a section that keeps two of them
// busy waits for whichever is stolen from, and its wall time swings far
// more between identical runs than the same work on one processor does.
const procs = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	dir := flag.String("dir", ".bench_build", "directory for scheme files and span dumps")
	workload := flag.String("workload", "", "workload: "+strings.Join(Workloads, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the timed phase to this file")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ftbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	res, err := run(*dir, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(dir, workload string, seed uint64, dur time.Duration, traced bool, cpuprofile string) (*Result, error) {
	in, err := Generate(workload, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(dir, "work-"+workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	sys := newSystem(in, seed)
	oracle := NewOracle(in.N, in.Edges)
	fmt.Printf("workload %s seed %d: %d vertices, %d edges, %d requests per round, %d distinct requests\n",
		workload, seed, in.N, len(in.Edges), in.RoundLen, len(in.Seq))

	runtime.GC()
	baseHeap := heapAlloc()
	var (
		sets []*setupRun
		last *setupRun
	)
	for i := 0; i < setups; i++ {
		if last != nil {
			last.release()
		}
		last, err = sys.setup(filepath.Join(work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		sets = append(sets, last)
	}
	runtime.GC()
	resident := float64(heapAlloc()) - float64(baseHeap)

	before := last.srv.Stats()
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	phase := timedPhase(last.srv, sys.endpoint, in, dur)
	pprof.StopCPUProfile()
	after := last.srv.Stats()

	check := checkAnswers(oracle, sys, phase)
	for _, msg := range check.notes {
		fmt.Println("FAILED:", msg)
	}
	loads, err := sys.loadTimes(last.dir, loadTrials)
	if err != nil {
		return nil, err
	}
	bits := sys.labelBitsMax(last, loads)
	props := describe(oracle, sys, last, phase, check, before, after)
	props.print()

	pairs := float64(phase.pairs)
	e2e := map[string]metric{
		"throughput_pairs_s": {pairs / phase.wall.Seconds(), "pairs/s"},
		"cpu_us_per_pair":    {phase.cpu * 1e6 / pairs, "us"},
		"latency_p50_ms":     {ms(quantile(phase.latencies, 0.50)), "ms"},
		"latency_p90_ms":     {ms(quantile(phase.latencies, 0.90)), "ms"},
		"setup_s":            {median(sets, func(s *setupRun) float64 { return s.wall }), "s"},
		"setup_cpu_s":        {median(sets, func(s *setupRun) float64 { return s.cpu }), "s"},
		"load_s":             {loads.ready, "s"},
		"resident_bytes":     {resident, "B"},
		"scheme_bytes":       {float64(last.schemeBytes), "B"},
		"label_bits_max":     {float64(bits), "bits"},
		"stretch_mean":       {check.stretchMean(), "ratio"},
	}
	printMetrics("end-to-end (untraced)", e2e)
	res := &Result{
		Correct:   check.wrong == 0,
		Attempted: len(phase.sent),
		Failed:    check.failed,
		Metrics:   e2e,
	}
	if !traced {
		return res, nil
	}
	layers, err := tracedRun(dir, seed, sys, last, loads, sets, phase, props, e2e)
	if err != nil {
		return nil, err
	}
	printMetrics("per-layer (traced run)", layers)
	res.Metrics = layers
	return res, nil
}

func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the nearest-rank q-quantile.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return medianOf(vs)
}

func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println(title + ":")
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
