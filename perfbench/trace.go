package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"conferr"
	"conferr/internal/confnode"
	"conferr/internal/core"
	"conferr/internal/dist"
	"conferr/internal/scenario"
	"conferr/internal/suts"
	"conferr/internal/view"
)

// This file is the outside-in tracing of traced rounds. Nothing inside
// the program is instrumented: the benchmark registers traced twins of
// the systems and plugins it uses (the name plus tracedSuffix) whose
// factories wrap what the real ones return, and wraps the dist server's
// connections and shard runner. Spans are kept in memory as durations
// and reduced when the run ends.

// tracedSuffix marks the registry names of traced twins. Outputs are
// written under the real names, so traced profiles are byte-comparable
// with untraced ones.
const tracedSuffix = ".traced"

// tracer collects one traced round's spans.
type tracer struct {
	mu     sync.Mutex
	suts   []*sutSpans
	shards []*shardSpans

	genNs     atomic.Int64
	genCount  atomic.Int64
	wireBytes atomic.Int64
	// failProbe, when positive, makes that probe call of the round fail;
	// tests use it to show that a behaviour change under tracing is
	// caught by the digest comparison.
	failProbe int64
	probes    atomic.Int64
}

// sutSpans are the SUT and probe spans of one system instance, which one
// campaign worker drives at a time.
type sutSpans struct {
	start, stop, reload, validate, probe durations
}

func (tr *tracer) newSUT() *sutSpans {
	s := &sutSpans{}
	tr.mu.Lock()
	tr.suts = append(tr.suts, s)
	tr.mu.Unlock()
	return s
}

// shardSpans are one dist shard's spans on its worker: the whole shard,
// the cycle from one emitted record to the next (generation plus the
// experiment plus rendering), and the time emit spent sending.
type shardSpans struct {
	span    time.Duration
	cycles  durations
	send    time.Duration
	records int
}

func (tr *tracer) newShard() *shardSpans {
	s := &shardSpans{}
	tr.mu.Lock()
	tr.shards = append(tr.shards, s)
	tr.mu.Unlock()
	return s
}

// tracerSlot hands the current round's tracer to the registered traced
// factories, which the registry keeps for the whole process.
type tracerSlot struct{ cur atomic.Pointer[tracer] }

func (s *tracerSlot) get() *tracer {
	if tr := s.cur.Load(); tr != nil {
		return tr
	}
	return &tracer{} // a traced twin built outside a traced round
}

var (
	slot tracerSlot
	// twins records which traced twins are registered; the registry
	// refuses a second registration of a name.
	twins = struct {
		sync.Mutex
		done map[string]bool
	}{done: map[string]bool{}}
)

// registerTraced registers the traced twins of the given systems and
// plugins that are not registered yet.
func registerTraced(systems, plugins []string) error {
	twins.Lock()
	defer twins.Unlock()
	for _, name := range systems {
		if twins.done["system:"+name] {
			continue
		}
		f, err := conferr.LookupTarget(name)
		if err != nil {
			return err
		}
		conferr.RegisterTarget(name+tracedSuffix, tracedFactory(f))
		twins.done["system:"+name] = true
	}
	for _, name := range plugins {
		if twins.done["plugin:"+name] {
			continue
		}
		f, err := conferr.LookupGenerator(name)
		if err != nil {
			return err
		}
		conferr.RegisterGenerator(name+tracedSuffix, tracedGenFactory(f))
		twins.done["plugin:"+name] = true
	}
	return nil
}

// tracedFactory wraps every target the factory builds: the engine-facing
// system and each functional test. The simulator itself stays in
// SystemTarget.System, where the facade looks for its port and transport.
func tracedFactory(f conferr.TargetFactory) conferr.TargetFactory {
	return func(port int) (*conferr.SystemTarget, error) {
		st, err := f(port)
		if err != nil {
			return nil, err
		}
		tr := slot.get()
		spans := tr.newSUT()
		sys, err := traceSystem(st.Target.System, spans)
		if err != nil {
			return nil, err
		}
		t := *st.Target
		t.System = sys
		t.Tests = make([]suts.Test, len(st.Target.Tests))
		for i, test := range st.Target.Tests {
			run := test.Run
			t.Tests[i] = suts.Test{Name: test.Name, Run: func() error {
				t0 := time.Now()
				err := run()
				spans.probe = append(spans.probe, time.Since(t0))
				if tr.failProbe > 0 && tr.probes.Add(1) == tr.failProbe {
					return errors.New("injected probe failure")
				}
				return err
			}}
		}
		return &conferr.SystemTarget{Target: &t, System: st.System}, nil
	}
}

// Capabilities the engine and the SUT pool probe for. A traced system
// must present exactly the set of the system it wraps, or the pool would
// take another path than in an untraced round.
const (
	capAddressable = 1 << iota
	capReloader
	capDirtyReloader
	capDirtyStarter
	capValidator
	capHealth
)

func capsOf(s suts.System) int {
	c := 0
	if _, ok := s.(suts.Addressable); ok {
		c |= capAddressable
	}
	if _, ok := s.(suts.Reloader); ok {
		c |= capReloader
	}
	if _, ok := s.(suts.DirtyReloader); ok {
		c |= capDirtyReloader
	}
	if _, ok := s.(suts.DirtyStarter); ok {
		c |= capDirtyStarter
	}
	if _, ok := s.(suts.Validator); ok {
		c |= capValidator
	}
	if _, ok := s.(suts.HealthChecker); ok {
		c |= capHealth
	}
	return c
}

// traceSystem wraps sys in the traced system type whose capabilities
// match sys's.
func traceSystem(sys suts.System, spans *sutSpans) (suts.System, error) {
	base := &tracedSystem{inner: sys, spans: spans}
	var out suts.System
	switch capsOf(sys) {
	case capAddressable:
		out = tracedAddressable{base}
	case capAddressable | capReloader | capDirtyReloader | capValidator | capHealth:
		out = tracedWarm{base}
	default:
		return nil, fmt.Errorf("trace: no traced wrapper for %s's capability set %06b", sys.Name(), capsOf(sys))
	}
	if capsOf(out) != capsOf(sys) {
		return nil, fmt.Errorf("trace: traced %s changes the capability set", sys.Name())
	}
	return out, nil
}

// tracedSystem times every lifecycle call of the wrapped system.
type tracedSystem struct {
	inner suts.System
	spans *sutSpans
}

func (s *tracedSystem) Name() string              { return s.inner.Name() }
func (s *tracedSystem) DefaultConfig() suts.Files { return s.inner.DefaultConfig() }

func (s *tracedSystem) Start(files suts.Files) error {
	t0 := time.Now()
	err := s.inner.Start(files)
	s.spans.start = append(s.spans.start, time.Since(t0))
	return err
}

func (s *tracedSystem) Stop() error {
	t0 := time.Now()
	err := s.inner.Stop()
	s.spans.stop = append(s.spans.stop, time.Since(t0))
	return err
}

// tracedAddressable is a traced system that only serves an address.
type tracedAddressable struct{ *tracedSystem }

func (s tracedAddressable) Addr() string { return s.inner.(suts.Addressable).Addr() }

// tracedWarm is a traced system with the warm-lifecycle capabilities.
type tracedWarm struct{ *tracedSystem }

func (s tracedWarm) Addr() string  { return s.inner.(suts.Addressable).Addr() }
func (s tracedWarm) Health() error { return s.inner.(suts.HealthChecker).Health() }

func (s tracedWarm) Reload(files suts.Files) error {
	t0 := time.Now()
	err := s.inner.(suts.Reloader).Reload(files)
	s.spans.reload = append(s.spans.reload, time.Since(t0))
	return err
}

func (s tracedWarm) ReloadDirty(files suts.Files, dirty []string) error {
	t0 := time.Now()
	err := s.inner.(suts.DirtyReloader).ReloadDirty(files, dirty)
	s.spans.reload = append(s.spans.reload, time.Since(t0))
	return err
}

func (s tracedWarm) Validate(files suts.Files) error {
	t0 := time.Now()
	err := s.inner.(suts.Validator).Validate(files)
	s.spans.validate = append(s.spans.validate, time.Since(t0))
	return err
}

// tracedGenFactory wraps the generators the factory builds.
func tracedGenFactory(f conferr.GeneratorFactory) conferr.GeneratorFactory {
	return func(o conferr.GeneratorOptions) (conferr.Generator, error) {
		o.System = trimTraced(o.System)
		g, err := f(o)
		if err != nil {
			return nil, err
		}
		sg, ok := g.(core.ShardedGenerator)
		if !ok {
			return nil, fmt.Errorf("trace: generator %s is not a sharded stream", g.Name())
		}
		return tracedGen{inner: sg, tr: slot.get()}, nil
	}
}

func trimTraced(name string) string {
	if n := len(name) - len(tracedSuffix); n > 0 && name[n:] == tracedSuffix {
		return name[:n]
	}
	return name
}

// tracedGen times the wrapped generator's streams: the time between
// handing one scenario on and the next arriving is generation.
type tracedGen struct {
	inner core.ShardedGenerator
	tr    *tracer
}

func (g tracedGen) Name() string    { return g.inner.Name() }
func (g tracedGen) View() view.View { return g.inner.View() }
func (g tracedGen) Shardable() bool { return core.CanShard(g.inner) }

func (g tracedGen) GenerateStream(set *confnode.Set) scenario.Source {
	return g.timed(g.inner.GenerateStream(set))
}

func (g tracedGen) GenerateShard(set *confnode.Set, k, n int) scenario.Source {
	return g.timed(g.inner.GenerateShard(set, k, n))
}

func (g tracedGen) Generate(set *confnode.Set) ([]scenario.Scenario, error) {
	t0 := time.Now()
	scens, err := g.inner.Generate(set)
	g.tr.genNs.Add(int64(time.Since(t0)))
	g.tr.genCount.Add(int64(len(scens)))
	return scens, err
}

func (g tracedGen) timed(src scenario.Source) scenario.Source {
	return func(yield func(scenario.Scenario, error) bool) {
		var busy time.Duration
		n := 0
		t := time.Now()
		src(func(sc scenario.Scenario, err error) bool {
			busy += time.Since(t)
			n++
			ok := yield(sc, err)
			t = time.Now()
			return ok
		})
		busy += time.Since(t)
		g.tr.genNs.Add(int64(busy))
		g.tr.genCount.Add(int64(n))
	}
}

// tracedRunner wraps the dist shard runner: it runs the shard against
// the traced twins and records the shard's spans. The twins render
// their names into each line, so the line is given back the real names
// before it is sent, keeping the wire bytes those of an untraced round.
type tracedRunner struct {
	inner dist.ShardRunner
	tr    *tracer
}

func linePrefix(system, plugin string) []byte {
	return []byte(`{"system":` + strconv.Quote(system) + `,"generator":` + strconv.Quote(plugin) + `,`)
}

func (r tracedRunner) RunShard(ctx context.Context, req dist.ShardRequest, emit func(int, []byte) error) (dist.ShardResult, error) {
	real := linePrefix(req.Campaign.System, req.Campaign.Plugin)
	req.Campaign.System += tracedSuffix
	req.Campaign.Plugin += tracedSuffix
	twin := linePrefix(req.Campaign.System, req.Campaign.Plugin)
	sp := r.tr.newShard()
	start := time.Now()
	last := start
	var buf []byte
	res, err := r.inner.RunShard(ctx, req, func(seq int, line []byte) error {
		now := time.Now()
		sp.cycles = append(sp.cycles, now.Sub(last))
		if !bytes.HasPrefix(line, twin) {
			return fmt.Errorf("trace: unexpected line prefix in %.80q", line)
		}
		buf = append(append(buf[:0], real...), line[len(twin):]...)
		err := emit(seq, buf)
		last = time.Now()
		sp.send += last.Sub(now)
		sp.records++
		return err
	})
	sp.span = time.Since(start)
	return res, err
}

// countConn counts the bytes a dist server connection carries both ways.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
