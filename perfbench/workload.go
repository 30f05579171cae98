package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"conferr"
	"conferr/internal/dist"
	"conferr/internal/sutpool"
)

// basePort is the primary port of matrix cell i (basePort+i), the conferr
// command's default, so every faultload embeds the same ports as a
// command-line run.
const basePort = 24100

// faultloadRounds is the shape of the standard 1M nginx/typo faultload:
// the base enumeration replayed 107 times with round-prefixed IDs.
const faultloadRounds = 107

// cell is one campaign of a workload.
type cell struct {
	system, plugin string
}

// workload is one fixed campaign configuration.
type workload struct {
	name  string
	cells []cell
	// repeat runs each cell as a prefix of the standard faultload:
	// faultloadRounds rounds capped at sizes.limit scenarios.
	repeat    bool
	lifecycle string
	// workers is the campaign worker budget; for dist it is the number of
	// in-process servers, one shard each.
	workers int
	// jsonl streams each cell to its own JSONL file instead of one cprof
	// file.
	jsonl bool
	dist  bool
}

var workloads = map[string]*workload{
	"typo-reload": {
		name:      "typo-reload",
		cells:     []cell{{"nginx", "typo"}},
		repeat:    true,
		lifecycle: "reload",
		workers:   1,
	},
	"table1-cold": {
		name: "table1-cold",
		// The paper's Table 1 matrix without MySQL: the MySQL simulator
		// cannot use the in-memory transport, so its cells would bind and
		// dial kernel TCP ports per experiment (see README.md).
		cells: []cell{
			{"postgres", "typo"}, {"postgres", "structural"},
			{"apache", "typo"}, {"apache", "structural"},
		},
		lifecycle: "cold",
		workers:   2,
		jsonl:     true,
	},
	"dist-validate": {
		name:      "dist-validate",
		cells:     []cell{{"nginx", "typo"}},
		repeat:    true,
		lifecycle: "validate",
		workers:   2,
		dist:      true,
	},
}

// env is one run's state: the workload, its settings, and the reference
// records every round is compared against.
type env struct {
	w   *workload
	cfg config
	// ref holds, per cell, the sampled scenarios' records from the
	// reference configuration, by scenario ID.
	ref []map[string]conferr.Record
	// digest is the first round's record digest; every later round,
	// traced or not, must reproduce it.
	digest string
}

func newEnv(w *workload, cfg config) (*env, error) {
	e := &env{w: w, cfg: cfg}
	if cfg.trace {
		var systems, plugins []string
		seen := map[string]bool{}
		for _, c := range w.cells {
			if !seen[c.system] {
				systems = append(systems, c.system)
				seen[c.system] = true
			}
			if !seen[c.plugin] {
				plugins = append(plugins, c.plugin)
				seen[c.plugin] = true
			}
		}
		if err := registerTraced(systems, plugins); err != nil {
			return nil, err
		}
	}
	ref, err := e.reference(context.Background())
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	e.ref = ref
	return e, nil
}

// roundResult is what one round measured and found.
type roundResult struct {
	records      int
	setup, wall  time.Duration
	cpu          time.Duration
	peakMemMB    float64 // over the campaign, set-up included
	profileBytes int64
	report       cpuWork // the report folds
	convert      cpuWork // the codec round trips
	digest       string
	failures     []string

	// Untraced rounds of a traced run read the runtime's allocation and
	// GC counters around the campaign.
	allocBytes uint64
	gcCycles   uint32

	layers *layerRound // traced rounds only
}

// campaignOut is what the campaign phase of a round hands the checks.
type campaignOut struct {
	paths     []string
	summaries []conferr.Summary // per cell, as the engine tallied them
	records   int               // as the engine counted them
	tallies   []conferr.Summary // per cell, as the checks tallied the profile
	counters  *sutpool.Snapshot // matrix workloads
	dist      *dist.Result      // dist workload
	tr        *tracer
}

// round runs one whole round: the campaign, timed from the round's start
// to the first record (set-up) and from there to the last record
// written (the campaign wall), then the untimed checks and the timed
// report fold and codec round trip over the written profile.
func (e *env) round(i int, traced bool) (*roundResult, error) {
	ctx := context.Background()
	var tr *tracer
	if traced {
		tr = &tracer{failProbe: e.cfg.faults.failProbe}
		slot.cur.Store(tr)
		defer slot.cur.Store(nil)
	}
	clock := &roundClock{}
	cts := make([]*campaignTap, len(e.w.cells))
	for k, c := range e.w.cells {
		cts[k] = &campaignTap{system: c.system, plugin: c.plugin, clock: clock, traced: traced}
	}
	// Every campaign starts from a collected heap returned to the
	// operating system, as in a fresh process, so its peak memory does
	// not depend on what earlier rounds left behind.
	debug.FreeOSMemory()
	readMem := e.cfg.trace && !traced
	var ms0, ms1 runtime.MemStats
	if readMem {
		runtime.ReadMemStats(&ms0)
	}

	mem := sampleMem()
	t0 := time.Now()
	var out *campaignOut
	var err error
	if e.w.dist {
		out, err = e.distCampaign(ctx, cts, tr, i)
	} else {
		out, err = e.matrixCampaign(ctx, cts, tr, i)
	}
	end := time.Now()
	cpuEnd := cpuTime()
	peakMem := mem.peakMB()
	if err != nil {
		return nil, err
	}
	if readMem {
		runtime.ReadMemStats(&ms1)
	}
	if clock.first.IsZero() {
		return nil, fmt.Errorf("round %d: no record reached the output", i)
	}
	r := &roundResult{
		records:    out.records,
		setup:      clock.first.Sub(t0),
		wall:       end.Sub(clock.first),
		cpu:        cpuEnd - clock.cpu,
		peakMemMB:  peakMem,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		gcCycles:   ms1.NumGC - ms0.NumGC,
	}
	ck := &checks{}
	if r.digest, err = recordDigest(cts); err != nil {
		ck.fail("sink-sequence", "%v", err)
	}
	switch {
	case e.digest == "":
		e.digest = r.digest
	case r.digest != e.digest:
		name := "round-digest"
		if traced {
			name = "trace-digest"
		}
		ck.fail(name, "round digest %s differs from the first round's %s", r.digest, e.digest)
	}

	for _, p := range out.paths {
		if err := e.cfg.faults.apply(p, e.w.jsonl); err != nil {
			return nil, fmt.Errorf("injecting fault into %s: %w", p, err)
		}
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		r.profileBytes += fi.Size()
	}
	tChecks := time.Now()
	e.checkProfile(ck, out, cts)
	tReport := time.Now()
	r.report = e.reportPhase(ck, out)
	tConvert := time.Now()
	r.convert = e.convertPhase(ck, out, cts)
	fmt.Fprintf(os.Stderr, "round %d traced=%v: setup %v, campaign %v (%.0f exp/s), checks %v, report %v (%.0f records/CPU s), convert %v (%.0f records/CPU s)\n",
		i, traced, r.setup, r.wall, float64(r.records)/r.wall.Seconds(), tReport.Sub(tChecks),
		tConvert.Sub(tReport), r.report.rate(), time.Since(tConvert), r.convert.rate())
	e.checkInvariants(ck, out)
	if traced {
		r.layers = collectLayers(e.w, r, out, cts)
		ck.traceAccounting(r.layers, r.setup)
	}
	r.failures = ck.list()
	for _, p := range out.paths {
		if err := os.Remove(p); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// name is the registry name a round uses: the traced twin in traced
// rounds.
func name(n string, tr *tracer) string {
	if tr != nil {
		return n + tracedSuffix
	}
	return n
}

// matrixCampaign runs the workload's cells as one conferr.RunMatrix
// suite over the in-memory transport, streaming to cprof or to one JSONL
// file per cell with durations stripped, as `conferr matrix -memnet
// -no-duration -stream-out` does.
func (e *env) matrixCampaign(ctx context.Context, cts []*campaignTap, tr *tracer, round int) (*campaignOut, error) {
	w := e.w
	lifecycle, err := conferr.ParseLifecycle(w.lifecycle)
	if err != nil {
		return nil, err
	}
	counters := &conferr.LifecycleCounters{}
	mo := conferr.MatrixOptions{
		Workers:      w.workers,
		BasePort:     basePort,
		Lifecycle:    lifecycle,
		PoolCounters: counters,
		InMemory:     true,
	}
	if w.repeat {
		mo.Rounds = faultloadRounds
		mo.Limit = e.cfg.sizes.limit
	}
	entries := make([]conferr.MatrixEntry, len(w.cells))
	index := make(map[string]int, len(w.cells))
	for k, c := range w.cells {
		entries[k] = conferr.MatrixEntry{
			System:  name(c.system, tr),
			Plugin:  name(c.plugin, tr),
			Options: conferr.GeneratorOptions{Seed: e.cfg.seed},
		}
		index[entries[k].System+"/"+entries[k].Plugin] = k
	}

	out := &campaignOut{tr: tr}
	var finish func() error
	if w.jsonl {
		files := make([]*os.File, len(w.cells))
		bufs := make([]*bufio.Writer, len(w.cells))
		for k, c := range w.cells {
			p := e.profilePath(fmt.Sprintf("r%d-%s-%s.jsonl", round, c.system, c.plugin))
			f, err := os.Create(p)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			files[k], bufs[k] = f, bufio.NewWriterSize(f, 1<<20)
			out.paths = append(out.paths, p)
		}
		mo.SinkFor = func(en conferr.MatrixEntry) conferr.Sink {
			k := index[en.System+"/"+en.Plugin]
			c := w.cells[k]
			return cts[k].sink(conferr.StripDurations(conferr.NewJSONLSink(bufs[k], c.system, c.plugin)))
		}
		finish = func() error {
			for k := range files {
				if err := bufs[k].Flush(); err != nil {
					return err
				}
				if err := files[k].Close(); err != nil {
					return err
				}
			}
			return nil
		}
	} else {
		p := e.profilePath(fmt.Sprintf("r%d.cprof", round))
		cf, err := conferr.CreateCprof(p)
		if err != nil {
			return nil, err
		}
		out.paths = []string{p}
		mo.SinkFor = func(en conferr.MatrixEntry) conferr.Sink {
			k := index[en.System+"/"+en.Plugin]
			c := w.cells[k]
			return cts[k].sink(conferr.StripDurations(cf.W.Sink(c.system, c.plugin)))
		}
		finish = func() error { return cf.Close(true) }
	}

	res, err := conferr.RunMatrix(ctx, entries, mo)
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, fmt.Errorf("matrix: %w", err)
	}
	for _, cr := range res.Results {
		s := cr.Summary
		s.System = ""
		out.summaries = append(out.summaries, s)
		out.records += cr.Records
	}
	snap := counters.Snapshot()
	out.counters = &snap
	return out, nil
}

// distCampaign runs the workload's one cell through a dist.Coordinator
// and in-process dist.Servers on loopback, one shard per server, merged
// to cprof as `conferr dist -out foo.cprof` does. The coordinator keeps
// no checkpoint: checkpoint writes are fsync'd, and disk sync times say
// more about the host than about the program.
func (e *env) distCampaign(ctx context.Context, cts []*campaignTap, tr *tracer, round int) (*campaignOut, error) {
	w := e.w
	c := w.cells[0]
	srvCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	servers := make([]*dist.Server, w.workers)
	addrs := make([]string, w.workers)
	defer func() {
		cancel()
		for _, s := range servers {
			if s != nil {
				_ = s.Close()
			}
		}
		wg.Wait()
	}()
	for k := range servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s := &dist.Server{Runner: conferr.NewDistRunner()}
		if tr != nil {
			s.Runner = tracedRunner{inner: s.Runner, tr: tr}
			s.WrapConn = func(conn net.Conn) net.Conn { return countConn{Conn: conn, n: &tr.wireBytes} }
		}
		servers[k], addrs[k] = s, ln.Addr().String()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Serve(srvCtx, ln)
		}()
	}

	p := e.profilePath(fmt.Sprintf("r%d.cprof", round))
	coord := &dist.Coordinator{
		Workers: addrs,
		Shards:  w.workers,
		Spec: dist.CampaignSpec{
			System: c.system, Plugin: c.plugin, Seed: e.cfg.seed,
			Rounds: faultloadRounds, Limit: e.cfg.sizes.limit,
			Port: basePort, Lifecycle: w.lifecycle, Memnet: true, NoDuration: true,
		},
		OutFactory: func(int) (io.Writer, func() error, func(bool) error, error) {
			cf, err := conferr.CreateCprof(p)
			if err != nil {
				return nil, nil, nil, err
			}
			return cts[0].lines(cf.W.LineWriter()), cf.Flush, cf.Close, nil
		},
	}
	res, err := coord.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return &campaignOut{
		paths:     []string{p},
		summaries: []conferr.Summary{res.Summary},
		records:   res.Records,
		dist:      &res,
		tr:        tr,
	}, nil
}

// reference re-runs a seeded sample of each cell's faultload in the
// cold, single-worker, kernel-TCP configuration — the one every
// lifecycle and transport is documented to reproduce — and returns the
// sampled records by scenario ID.
func (e *env) reference(ctx context.Context) ([]map[string]conferr.Record, error) {
	out := make([]map[string]conferr.Record, len(e.w.cells))
	for k, c := range e.w.cells {
		tf, err := conferr.LookupTarget(c.system)
		if err != nil {
			return nil, err
		}
		gf, err := conferr.LookupGenerator(c.plugin)
		if err != nil {
			return nil, err
		}
		gen, err := gf(conferr.GeneratorOptions{System: c.system, Seed: e.cfg.seed})
		if err != nil {
			return nil, err
		}
		if e.w.repeat {
			gen = conferr.LimitGenerator(conferr.RepeatGenerator(gen, faultloadRounds), e.cfg.sizes.limit)
		}
		gen = conferr.SampleGenerator(gen, e.cfg.seed, e.cfg.sizes.refSample)
		r := &conferr.Runner{Factory: tf, Generator: gen, Port: basePort + k}
		prof, err := r.Run(ctx, conferr.WithParallelism(1))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", c.system, c.plugin, err)
		}
		m := make(map[string]conferr.Record, len(prof.Records))
		dropped := 0
		for _, rec := range prof.Records {
			if strings.Contains(rec.Detail, "address already in use") {
				// Over kernel TCP a typo'd port can collide with a socket
				// the host still holds (a TIME_WAIT client port, say), so
				// such a record speaks of the host, not of the program.
				dropped++
				continue
			}
			rec.Duration = 0
			m[rec.ScenarioID] = rec
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "reference %s/%s: %d sampled scenarios dropped: their port was held on the host\n", c.system, c.plugin, dropped)
		}
		out[k] = m
	}
	return out, nil
}
