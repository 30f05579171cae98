package main

import (
	"time"

	"conferr/internal/sutpool"
)

// layerRound is one traced round's spans and counters, reduced to what
// the per-layer metrics need.
type layerRound struct {
	records int
	// workers × wall is the worker time the spans and the unattributed
	// remainder share.
	workers int
	wall    time.Duration
	// gen is time inside the generator's streams; exp is time inside
	// experiments (record durations on the matrix workloads, the
	// emit-to-emit cycles minus generation on dist); sink is time inside
	// the output on the workers' goroutines.
	gen, exp, sink time.Duration
	// sutTime is Σ start, stop, reload and validate spans; probeTime Σ
	// probe spans.
	sutTime, probeTime                   time.Duration
	start, stop, reload, validate, probe durations
	latency                              durations
	counters                             sutpool.Snapshot
	wireBytes                            int64
	merge                                time.Duration
	workerRate                           float64
	retries, duplicates                  int
	exps                                 float64 // experiments per second of this traced round
}

// collectLayers reduces a traced round's tracer and taps.
func collectLayers(w *workload, r *roundResult, out *campaignOut, cts []*campaignTap) *layerRound {
	tr := out.tr
	l := &layerRound{
		records: r.records,
		workers: w.workers,
		wall:    r.wall,
		gen:     time.Duration(tr.genNs.Load()),
		exps:    float64(r.records) / r.wall.Seconds(),
	}
	for _, s := range tr.suts {
		l.start = append(l.start, s.start...)
		l.stop = append(l.stop, s.stop...)
		l.reload = append(l.reload, s.reload...)
		l.validate = append(l.validate, s.validate...)
		l.probe = append(l.probe, s.probe...)
	}
	l.sutTime = l.start.sum() + l.stop.sum() + l.reload.sum() + l.validate.sum()
	l.probeTime = l.probe.sum()
	var tapSink time.Duration
	for _, c := range cts {
		for _, s := range c.taps {
			l.latency = append(l.latency, s.durs...)
			tapSink += s.sink
		}
	}
	if out.counters != nil {
		l.counters = *out.counters
	}
	if out.dist == nil {
		l.exp = l.latency.sum()
		l.sink = tapSink
		return l
	}
	// On dist the records carry no durations, so the worker-side cycle
	// between two emitted records stands in for the experiment, and the
	// output is the coordinator's merge, which runs off the workers.
	l.latency = l.latency[:0]
	var cycles, send time.Duration
	for _, s := range tr.shards {
		l.latency = append(l.latency, s.cycles...)
		cycles += s.cycles.sum()
		send += s.send
		if s.span > 0 {
			l.workerRate += float64(s.records) / s.span.Seconds()
		}
	}
	l.exp = cycles - l.gen
	l.sink = send
	l.merge = tapSink
	l.wireBytes = tr.wireBytes.Load()
	l.retries, l.duplicates = out.dist.Retries, out.dist.Duplicates
	return l
}

// traceAccounting checks that the spans fit in the worker time of the
// traced round (set-up included, since the first experiment runs before
// the first record reaches the output): spans that overlap or run on
// more goroutines than the workload has workers would leave a negative
// remainder.
func (c *checks) traceAccounting(l *layerRound, setup time.Duration) {
	spans := l.gen + l.exp + l.sink
	budget := time.Duration(l.workers) * (l.wall + setup)
	if spans > budget {
		c.fail("trace-accounting", "spans %v exceed %d workers × %v", spans, l.workers, l.wall+setup)
	}
}

// perLayer reduces the rounds of a traced run to the per-layer metrics.
// Span samples are pooled over the traced rounds; the runtime counters
// come from the untraced rounds, which the tracing does not disturb.
func perLayer(w *workload, plain, traced []*roundResult) map[string]metric {
	var a layerRound
	var budget time.Duration
	var rates, workerRates []float64
	for _, r := range traced {
		l := r.layers
		a.records += l.records
		budget += time.Duration(l.workers) * l.wall
		a.gen += l.gen
		a.exp += l.exp
		a.sink += l.sink
		a.sutTime += l.sutTime
		a.probeTime += l.probeTime
		a.start = append(a.start, l.start...)
		a.stop = append(a.stop, l.stop...)
		a.reload = append(a.reload, l.reload...)
		a.validate = append(a.validate, l.validate...)
		a.probe = append(a.probe, l.probe...)
		a.latency = append(a.latency, l.latency...)
		a.counters.ColdStarts += l.counters.ColdStarts
		a.counters.Reloads += l.counters.Reloads
		a.counters.Validates += l.counters.Validates
		a.counters.Restarts += l.counters.Restarts
		a.counters.Quarantines += l.counters.Quarantines
		a.wireBytes += l.wireBytes
		a.merge += l.merge
		a.retries += l.retries
		a.duplicates += l.duplicates
		rates = append(rates, l.exps)
		workerRates = append(workerRates, l.workerRate)
	}
	var plainRates []float64
	var allocs uint64
	var gcs uint32
	plainRecords := 0
	for _, r := range plain {
		plainRates = append(plainRates, float64(r.records)/r.wall.Seconds())
		allocs += r.allocBytes
		gcs += r.gcCycles
		plainRecords += r.records
	}
	n := float64(a.records)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / n }
	ns := func(d time.Duration) float64 { return float64(d) / n }
	untraced := median(plainRates)
	m := map[string]metric{
		"plugins.gen_ns_per_scenario":    {ns(a.gen), "ns"},
		"view.inject_us_per_exp":         {us(a.exp - a.sutTime - a.probeTime), "us"},
		"suts.start_us_p50":              {a.start.quantileUS(0.50), "us"},
		"suts.start_us_p99":              {a.start.quantileUS(0.99), "us"},
		"suts.start_samples":             {float64(len(a.start)), "count"},
		"suts.stop_us_p50":               {a.stop.quantileUS(0.50), "us"},
		"suts.stop_samples":              {float64(len(a.stop)), "count"},
		"suts.reload_us_p50":             {a.reload.quantileUS(0.50), "us"},
		"suts.reload_us_p99":             {a.reload.quantileUS(0.99), "us"},
		"suts.reload_samples":            {float64(len(a.reload)), "count"},
		"suts.validate_us_p50":           {a.validate.quantileUS(0.50), "us"},
		"suts.validate_samples":          {float64(len(a.validate)), "count"},
		"probe.us_p50":                   {a.probe.quantileUS(0.50), "us"},
		"probe.us_p99":                   {a.probe.quantileUS(0.99), "us"},
		"probe.samples":                  {float64(len(a.probe)), "count"},
		"probe.calls_per_exp":            {float64(len(a.probe)) / n, "count"},
		"sutpool.cold_starts":            {float64(a.counters.ColdStarts), "count"},
		"sutpool.reloads":                {float64(a.counters.Reloads), "count"},
		"sutpool.validates":              {float64(a.counters.Validates), "count"},
		"sutpool.restarts":               {float64(a.counters.Restarts), "count"},
		"sutpool.quarantines":            {float64(a.counters.Quarantines), "count"},
		"core.exp_latency_p50_us":        {a.latency.quantileUS(0.50), "us"},
		"core.exp_latency_p99_us":        {a.latency.quantileUS(0.99), "us"},
		"core.exp_latency_samples":       {float64(len(a.latency)), "count"},
		"core.unattributed_us_per_exp":   {us(budget - a.gen - a.exp - a.sink), "us"},
		"profile.sink_ns_per_record":     {ns(a.sink), "ns"},
		"dist.wire_bytes_per_record":     {float64(a.wireBytes) / n, "B"},
		"dist.merge_ns_per_record":       {ns(a.merge), "ns"},
		"dist.worker_exp_per_s":          {median(workerRates), "1/s"},
		"dist.retries":                   {float64(a.retries), "count"},
		"dist.duplicates":                {float64(a.duplicates), "count"},
		"runtime.alloc_bytes_per_exp":    {float64(allocs) / float64(plainRecords), "B"},
		"runtime.gc_cycles_per_100k_exp": {float64(gcs) * 1e5 / float64(plainRecords), "count"},
		"trace.overhead_pct":             {(untraced - median(rates)) / untraced * 100, "%"},
	}
	if w.dist {
		// The coordinator's merge is the dist workload's output.
		m["profile.sink_ns_per_record"] = m["dist.merge_ns_per_record"]
	}
	return m
}
