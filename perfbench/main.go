// Command perfbench is the campaign benchmark: it runs one of three
// fixed workloads through the conferr facade for a set time, checks every
// profile it produces, and prints the end-to-end metrics (or, traced, the
// per-layer metrics) as one JSON object on the last line of standard
// output. See README.md for the workloads, the metrics and the checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	// The same GC setting the conferr command applies: campaigns hold
	// little live memory, so the default cadence mostly re-collects the
	// per-experiment garbage.
	gcSetting := os.Getenv("GOGC")
	if gcSetting == "" {
		debug.SetGCPercent(800)
		gcSetting = "800"
	}
	workload := flag.String("workload", "", "workload: typo-reload, table1-cold or dist-validate")
	seed := flag.Int64("seed", 0, "workload seed: the faultload seed of every campaign")
	seconds := flag.Float64("seconds", 25, "how long to keep starting measured rounds")
	traceFlag := flag.Int("trace", 0, "1 = alternate traced and untraced rounds and print the per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for the run's profile files")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want typo-reload, table1-cold or dist-validate)\n", *workload)
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	work, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(w, config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		dir:     work,
		sizes:   defaultSizes,
	})
	if rerr := os.RemoveAll(work); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	fmt.Printf("workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s gogc=%s rounds=%d traced_rounds=%d\n",
		w.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gcSetting, res.rounds, res.tracedRounds)
	fmt.Printf("attempted=%d failed=%d digest=%s\n", res.attempted, res.failed, res.digest)
	for _, f := range res.failures {
		fmt.Println("check failed:", f)
	}
	metrics := res.endToEnd
	if *traceFlag == 1 {
		metrics = res.perLayer
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := metrics[name]
		fmt.Printf("%-34s %14s %s\n", name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string
	sizes   sizes
	faults  faults
}

// sizes scale a run's work. Tests shrink them; the benchmark's own
// figures come from defaultSizes.
type sizes struct {
	// limit is the length of the nginx/typo faultload prefix run by
	// typo-reload and dist-validate.
	limit int
	// refSample is the number of scenarios per cell re-run in the
	// reference configuration.
	refSample int
	// reps and minPhase are the least number of timed report folds and
	// codec round trips in each round, and the least wall time they are
	// repeated for.
	reps     int
	minPhase time.Duration
}

var defaultSizes = sizes{limit: 25000, refSample: 300, reps: 2, minPhase: 250 * time.Millisecond}

// runResult is what one run prints.
type runResult struct {
	rounds, tracedRounds int
	attempted, failed    int
	digest               string
	failures             []string
	endToEnd, perLayer   map[string]metric
}

// run executes whole rounds of the workload until the next round would
// end past cfg.seconds (at least one round, and in a traced run at least
// one untraced and one traced round), checking each, and reduces the
// rounds to medians.
func run(w *workload, cfg config) (*runResult, error) {
	start := time.Now()
	env, err := newEnv(w, cfg)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	var plain, traced []*roundResult
	var longest time.Duration
	for i := 0; ; i++ {
		isTraced := cfg.trace && i%2 == 1
		t0 := time.Now()
		r, err := env.round(i, isTraced)
		if err != nil {
			return nil, err
		}
		longest = max(longest, time.Since(t0))
		res.attempted += r.records
		if len(r.failures) > 0 {
			res.failed += r.records
			for _, f := range r.failures {
				res.failures = append(res.failures, fmt.Sprintf("round %d: %s", i, f))
			}
		}
		if isTraced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		enough := len(plain) > 0 && (!cfg.trace || len(traced) > 0)
		if enough && time.Since(start)+longest > cfg.seconds {
			break
		}
	}
	res.rounds, res.tracedRounds = len(plain)+len(traced), len(traced)
	res.digest = plain[0].digest
	res.endToEnd = endToEnd(plain)
	if cfg.trace {
		res.perLayer = perLayer(w, plain, traced)
	}
	return res, nil
}

// endToEnd reduces untraced rounds to the end-to-end metrics. Rates and
// costs are totals over the rounds, which average the host's drift over
// the whole run; set-up and peak memory are medians of the rounds.
func endToEnd(rounds []*roundResult) map[string]metric {
	col := func(f func(r *roundResult) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return median(xs)
	}
	var records int
	var wall, cpu time.Duration
	var bytes int64
	var report, convert cpuWork
	for _, r := range rounds {
		records += r.records
		wall += r.wall
		cpu += r.cpu
		bytes += r.profileBytes
		report.add(r.report)
		convert.add(r.convert)
	}
	return map[string]metric{
		"exp_per_s":                 {float64(records) / wall.Seconds(), "1/s"},
		"cpu_us_per_exp":            {cpu.Seconds() * 1e6 / float64(records), "us"},
		"peak_mem_mb":               {col(func(r *roundResult) float64 { return r.peakMemMB }), "MB"},
		"bytes_per_record":          {float64(bytes) / float64(records), "B"},
		"report_records_per_cpu_s":  {report.rate(), "1/s"},
		"convert_records_per_cpu_s": {convert.rate(), "1/s"},
		"setup_s":                   {col(func(r *roundResult) float64 { return r.setup.Seconds() }), "s"},
	}
}

// cpuTime is the user+system CPU the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// profilePath names a round's output file.
func (e *env) profilePath(name string) string { return filepath.Join(e.cfg.dir, name) }
