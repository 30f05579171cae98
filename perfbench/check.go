package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"sort"
	"strings"

	"conferr"
	"conferr/internal/confnode"
	"conferr/internal/core"
	"conferr/internal/profile"
	"conferr/internal/scenario"
)

// This file holds the checks every round runs on what its campaign
// wrote. Each is computed apart from the code path it checks: the
// expected faultload comes from the benchmark's own pull of each cell's
// generator stream, the expected outcomes from an independent tally and
// from the reference configuration, and the expected bytes from the
// profile as first written.

// checks collects a round's failed checks by name, keeping the first
// message of each.
type checks struct {
	names []string
	first map[string]string
	count map[string]int
}

func (c *checks) fail(name, format string, args ...any) {
	if c.first == nil {
		c.first, c.count = map[string]string{}, map[string]int{}
	}
	if c.count[name] == 0 {
		c.names = append(c.names, name)
		c.first[name] = fmt.Sprintf(format, args...)
	}
	c.count[name]++
}

func (c *checks) list() []string {
	out := make([]string, 0, len(c.names))
	for _, n := range c.names {
		out = append(out, fmt.Sprintf("%s (%d): %s", n, c.count[n], c.first[n]))
	}
	return out
}

// expectedIDs pulls cell k's faultload itself: it parses the system's
// default configuration, maps it into the generator's view, and replays
// the generator's stream in the workload's shape (round-prefixed IDs,
// capped at the limit).
func (e *env) expectedIDs(k int) (iter.Seq[string], *error, error) {
	c := e.w.cells[k]
	tf, err := conferr.LookupTarget(c.system)
	if err != nil {
		return nil, nil, err
	}
	st, err := tf(basePort + k)
	if err != nil {
		return nil, nil, err
	}
	gf, err := conferr.LookupGenerator(c.plugin)
	if err != nil {
		return nil, nil, err
	}
	gen, err := gf(conferr.GeneratorOptions{System: c.system, Seed: e.cfg.seed})
	if err != nil {
		return nil, nil, err
	}
	sg, ok := gen.(core.StreamingGenerator)
	if !ok {
		return nil, nil, fmt.Errorf("%s is not a streaming generator", c.plugin)
	}
	files := st.Target.System.DefaultConfig()
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	sys := confnode.NewSet()
	for _, n := range names {
		root, err := st.Target.Formats[n].Parse(n, files[n])
		if err != nil {
			return nil, nil, err
		}
		sys.Put(n, root)
	}
	viewSet, err := gen.View().Forward(sys)
	if err != nil {
		return nil, nil, err
	}
	rounds, limit := 1, 0
	if e.w.repeat {
		rounds, limit = faultloadRounds, e.cfg.sizes.limit
	}
	var genErr error
	seq := func(yield func(string) bool) {
		n := 0
		for r := 0; r < rounds; r++ {
			prefix := ""
			if e.w.repeat {
				prefix = fmt.Sprintf("r%03d/", r)
			}
			done := false
			sg.GenerateStream(viewSet)(func(sc scenario.Scenario, err error) bool {
				if err != nil {
					genErr = err
				}
				if err != nil || (limit > 0 && n >= limit) || !yield(prefix+sc.ID) {
					done = true
					return false
				}
				n++
				return true
			})
			if done {
				return
			}
		}
	}
	return seq, &genErr, nil
}

// cellScan follows one cell through a profile scan.
type cellScan struct {
	next  func() (string, bool)
	n     int
	tally conferr.Summary
	ref   int // sampled scenarios found
}

// checkProfile scans the written profile in file order. Each cell's
// records must carry sequences 0..N-1 in order and exactly the scenario
// IDs of the cell's own faultload; none may be an infrastructure error;
// the sampled scenarios must agree with the reference; the records must
// equal what the taps saw; and the independent tally must match the
// engine's.
func (e *env) checkProfile(ck *checks, out *campaignOut, cts []*campaignTap) {
	cells := make(map[string]*cellScan, len(e.w.cells))
	scans := make([]*cellScan, len(e.w.cells))
	var genErrs []*error
	for k, c := range e.w.cells {
		ids, genErr, err := e.expectedIDs(k)
		if err != nil {
			ck.fail("faultload", "%s/%s: %v", c.system, c.plugin, err)
			return
		}
		next, stop := iter.Pull(ids)
		defer stop()
		s := &cellScan{next: next}
		cells[c.system+"/"+c.plugin] = s
		scans[k] = s
		genErrs = append(genErrs, genErr)
	}
	pd := newProfileDigest(cts)
	for _, p := range out.paths {
		err := conferr.ScanProfilePath(p, func(en conferr.JSONLEntry) error {
			key := en.System + "/" + en.Generator
			s := cells[key]
			if s == nil {
				ck.fail("completeness", "record of unknown campaign %s", key)
				return nil
			}
			if en.Seq != s.n {
				ck.fail("order", "%s: record %d carries sequence %d", key, s.n, en.Seq)
			}
			id, ok := s.next()
			switch {
			case !ok:
				ck.fail("completeness", "%s: record %d (%s) is past the end of the faultload", key, s.n, en.Record.ScenarioID)
			case id != en.Record.ScenarioID:
				ck.fail("completeness", "%s: record %d is %s, faultload has %s", key, s.n, en.Record.ScenarioID, id)
			}
			s.n++
			s.tally.Add(en.Record)
			if en.Record.Outcome == conferr.InfrastructureError {
				ck.fail("infrastructure-error", "%s: %s: %s", key, en.Record.ScenarioID, en.Record.Detail)
			}
			k := indexOf(e.w.cells, en.System, en.Generator)
			if want, ok := e.ref[k][en.Record.ScenarioID]; ok {
				s.ref++
				if got := en.Record; !e.agrees(got, want) {
					ck.fail("reference", "%s: %s: got %s %q, reference %s %q",
						key, got.ScenarioID, got.Outcome, got.Detail, want.Outcome, want.Detail)
				}
			}
			pd.add(en)
			return nil
		})
		if err != nil {
			ck.fail("profile-scan", "%s: %v", p, err)
		}
	}
	total := 0
	for k, s := range scans {
		c := e.w.cells[k]
		if id, ok := s.next(); ok {
			ck.fail("completeness", "%s/%s: profile ends after %d records, faultload continues with %s", c.system, c.plugin, s.n, id)
		}
		if err := *genErrs[k]; err != nil {
			ck.fail("faultload", "%s/%s: %v", c.system, c.plugin, err)
		}
		if s.ref != len(e.ref[k]) {
			ck.fail("reference", "%s/%s: %d of %d sampled scenarios in the profile", c.system, c.plugin, s.ref, len(e.ref[k]))
		}
		if s.tally != out.summaries[k] {
			ck.fail("fold-consistency", "%s/%s: profile tally %+v, campaign summary %+v", c.system, c.plugin, s.tally, out.summaries[k])
		}
		total += s.n
	}
	if total != out.records {
		ck.fail("completeness", "profile holds %d records, the engine counted %d", total, out.records)
	}
	if d, err := pd.sum(cts); err != nil {
		ck.fail("profile-vs-sink", "%v", err)
	} else if tapDigest, err := recordDigest(cts); err == nil && d != tapDigest {
		ck.fail("profile-vs-sink", "profile digest %s, the sink saw %s", d, tapDigest)
	}
	// Hand the tallies to the fold check.
	out.tallies = make([]conferr.Summary, len(scans))
	for k, s := range scans {
		out.tallies[k] = s.tally
	}
}

func indexOf(cells []cell, system, plugin string) int {
	for k, c := range cells {
		if c.system == system && c.plugin == plugin {
			return k
		}
	}
	return -1
}

// agrees compares a campaign record with the reference's. Reload and
// cold records must be identical. Validate runs only the parse check, so
// it must report the same startup rejections with the same detail and
// the same inexpressible or inapplicable scenarios, and everything else
// as ignored.
func (e *env) agrees(got, want conferr.Record) bool {
	got.Duration = 0
	if e.w.lifecycle == "validate" {
		switch want.Outcome {
		case conferr.DetectedAtStartup, conferr.NotExpressible, conferr.NotApplicable:
		default:
			want.Outcome, want.Detail = conferr.Ignored, ""
		}
	}
	return got == want
}

// reportPhase folds the written profile into the report shapes, as
// `conferr report` does, repeating the fold (see repeatCPU), and returns
// the records and CPU time of the folds. The last fold's Table 1 rows must
// equal the independent tally.
func (e *env) reportPhase(ck *checks, out *campaignOut) cpuWork {
	var stats *conferr.StreamStats
	key := func(r conferr.Record) string { return conferr.TypoDirectiveKey(r.ScenarioID) }
	work, err := repeatCPU(out.records, e.cfg.sizes.reps, e.cfg.sizes.minPhase, func() error {
		stats = conferr.NewStreamStats(key)
		for _, p := range out.paths {
			if err := conferr.ScanProfilePath(p, stats.Add); err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
		}
		_ = stats.FormatReport()
		return nil
	})
	if err != nil {
		ck.fail("report", "%v", err)
		return cpuWork{}
	}
	camps := stats.Campaigns()
	if len(camps) != len(e.w.cells) {
		ck.fail("fold-consistency", "report shows %d campaigns, the workload has %d", len(camps), len(e.w.cells))
		return work
	}
	for _, cs := range camps {
		k := indexOf(e.w.cells, cs.System, cs.Generator)
		if k < 0 || out.tallies == nil {
			ck.fail("fold-consistency", "report campaign %s/%s not in the workload", cs.System, cs.Generator)
			continue
		}
		s := cs.Summary
		s.System = ""
		if s != out.tallies[k] {
			ck.fail("fold-consistency", "%s/%s: report row %+v, profile tally %+v", cs.System, cs.Generator, s, out.tallies[k])
		}
	}
	return work
}

// convertPhase converts the written profile to the other format and
// back, as `conferr convert` does twice, repeating the round trip (see
// repeatCPU), and returns the records and CPU time of the round trips.
// The last round trip must reproduce the written files byte for byte,
// and the records of the intermediate format must equal what the taps
// saw.
func (e *env) convertPhase(ck *checks, out *campaignOut, cts []*campaignTap) cpuWork {
	var mids, backs []string
	work, err := repeatCPU(out.records, e.cfg.sizes.reps, e.cfg.sizes.minPhase, func() error {
		mids, backs = mids[:0], backs[:0]
		for _, p := range out.paths {
			mid, back := p+".rt.jsonl", p+".rt.cprof"
			there, again := cprofToJSONL, jsonlToCprof
			if e.w.jsonl {
				mid, back = p+".rt.cprof", p+".rt.jsonl"
				there, again = jsonlToCprof, cprofToJSONL
			}
			if err := there(p, mid); err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			if err := again(mid, back); err != nil {
				return fmt.Errorf("%s: %w", mid, err)
			}
			mids, backs = append(mids, mid), append(backs, back)
		}
		return nil
	})
	if err != nil {
		ck.fail("codec-round-trip", "%v", err)
		return cpuWork{}
	}
	pd := newProfileDigest(cts)
	for k, p := range out.paths {
		if same, err := sameBytes(p, backs[k]); err != nil || !same {
			ck.fail("codec-round-trip", "%s does not reproduce %s byte for byte (%v)", backs[k], p, err)
		}
		if err := conferr.ScanProfilePath(mids[k], func(en conferr.JSONLEntry) error {
			pd.add(en)
			return nil
		}); err != nil {
			ck.fail("codec-round-trip", "%s: %v", mids[k], err)
		}
		_ = os.Remove(mids[k])
		_ = os.Remove(backs[k])
	}
	d, err := pd.sum(cts)
	tapDigest, terr := recordDigest(cts)
	if err != nil || terr != nil || d != tapDigest {
		ck.fail("codec-round-trip", "converted records digest %s, the sink saw %s (%v, %v)", d, tapDigest, err, terr)
	}
	return work
}

func cprofToJSONL(src, dst string) error {
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = conferr.CprofToJSONL(src, bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func jsonlToCprof(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 256*1024)
	w := conferr.NewCprofWriter(bw)
	err = conferr.JSONLToCprof(bufio.NewReaderSize(in, 1<<20), w)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sameBytes reports whether two files hold the same bytes.
func sameBytes(a, b string) (bool, error) {
	fa, err := os.Open(a)
	if err != nil {
		return false, err
	}
	defer fa.Close()
	fb, err := os.Open(b)
	if err != nil {
		return false, err
	}
	defer fb.Close()
	ba, bb := make([]byte, 64*1024), make([]byte, 64*1024)
	for {
		na, ea := io.ReadFull(fa, ba)
		nb, eb := io.ReadFull(fb, bb)
		if !bytes.Equal(ba[:na], bb[:nb]) {
			return false, nil
		}
		aDone := errors.Is(ea, io.EOF) || errors.Is(ea, io.ErrUnexpectedEOF)
		bDone := errors.Is(eb, io.EOF) || errors.Is(eb, io.ErrUnexpectedEOF)
		switch {
		case ea != nil && !aDone:
			return false, ea
		case eb != nil && !bDone:
			return false, eb
		case aDone || bDone:
			return aDone && bDone, nil
		}
	}
}

// checkInvariants reads the lifecycle counters and the dist result from
// outside the engine: every experiment was a cold start or a reload
// (reload lifecycle), nothing was restarted, quarantined or found
// unhealthy, and the coordinator neither retried nor dropped duplicates.
func (e *env) checkInvariants(ck *checks, out *campaignOut) {
	if s := out.counters; s != nil {
		if e.w.lifecycle == "reload" && s.ColdStarts+s.Reloads != int64(out.records) {
			ck.fail("lifecycle", "cold starts %d + reloads %d != %d experiments", s.ColdStarts, s.Reloads, out.records)
		}
		if s.Restarts != 0 || s.Quarantines != 0 || s.HealthFailures != 0 {
			ck.fail("lifecycle", "restarts=%d quarantines=%d health-failures=%d, want all 0", s.Restarts, s.Quarantines, s.HealthFailures)
		}
	}
	if d := out.dist; d != nil && (d.Retries != 0 || d.Duplicates != 0) {
		ck.fail("dist", "retries=%d duplicates=%d, want 0", d.Retries, d.Duplicates)
	}
}

// faults are deliberate defects a test injects into a run to show the
// checks catch them. The zero value injects nothing.
type faults struct {
	// flipOutcome, dropSeq and swapRecords rewrite the middle of each
	// written profile; tornTail cuts the last tenth of it off.
	flipOutcome, dropSeq, swapRecords, tornTail bool
	// failProbe makes that probe call of each traced round fail.
	failProbe int64
}

func (f faults) apply(path string, jsonl bool) error {
	if f.tornTail {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		return os.Truncate(path, fi.Size()*9/10)
	}
	if !f.flipOutcome && !f.dropSeq && !f.swapRecords {
		return nil
	}
	var entries []conferr.JSONLEntry
	if err := conferr.ScanProfilePath(path, func(en conferr.JSONLEntry) error {
		entries = append(entries, en)
		return nil
	}); err != nil {
		return err
	}
	mid := len(entries) / 2
	switch {
	case f.flipOutcome:
		r := &entries[mid].Record
		if r.Outcome == conferr.Ignored {
			r.Outcome = conferr.DetectedByTest
		} else {
			r.Outcome = conferr.Ignored
		}
	case f.dropSeq:
		entries = append(entries[:mid], entries[mid+1:]...)
	case f.swapRecords:
		entries[mid], entries[mid+1] = entries[mid+1], entries[mid]
	}
	if jsonl {
		var b strings.Builder
		for _, en := range entries {
			b.Write(profile.AppendJSONLRecord(nil, en.System, en.Generator, en.Seq, en.Record))
		}
		return os.WriteFile(path, []byte(b.String()), 0o644)
	}
	cf, err := conferr.CreateCprof(path)
	if err != nil {
		return err
	}
	for _, en := range entries {
		if err := cf.W.WriteEntry(en); err != nil {
			_ = cf.Close(false)
			return err
		}
	}
	return cf.Close(true)
}
