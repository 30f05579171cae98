package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sync"
	"time"

	"conferr"
	"conferr/internal/profile"
)

// This file holds the taps: the benchmark's wrappers around the
// campaign's output. Every round, traced or not, passes its records
// through them. A tap stamps the moment the first record reaches the
// output (the end of set-up) and hashes each record's -no-duration JSONL
// bytes under its sequence number, which yields the order-sensitive
// record digest. In traced rounds it also keeps the record durations and
// times the wrapped sink's writes.

// roundClock marks when a round's first record reached an output and
// how much CPU the process had used by then.
type roundClock struct {
	once  sync.Once
	first time.Time
	cpu   time.Duration
}

func (c *roundClock) mark() {
	c.once.Do(func() {
		c.first = time.Now()
		c.cpu = cpuTime()
	})
}

// recordHash is one record's place in the digest.
type recordHash struct {
	seq int
	h   uint64
}

// fnv64 is FNV-1a over b.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// campaignTap gathers the taps of one campaign: the root tap and, when
// the engine fans the sink out, one tap per shard.
type campaignTap struct {
	system, plugin string
	clock          *roundClock
	traced         bool

	mu   sync.Mutex
	taps []*tapStats
}

// tapStats is what one tap saw. Each is written by one goroutine and
// read after the campaign has returned.
type tapStats struct {
	hashes []recordHash
	// durs are the records' durations and sink the time spent in the
	// wrapped sink; both are kept in traced rounds only.
	durs durations
	sink time.Duration
}

func (c *campaignTap) newStats() *tapStats {
	s := &tapStats{}
	c.mu.Lock()
	c.taps = append(c.taps, s)
	c.mu.Unlock()
	return s
}

// sink wraps the campaign's sink in a tap.
func (c *campaignTap) sink(inner conferr.Sink) conferr.Sink {
	return &sinkTap{c: c, inner: inner, stride: 1, st: c.newStats()}
}

// sinkTap is a record tap in front of a conferr.Sink. It keeps the
// wrapped sink's shardability, so the engine's per-shard sink bypass
// stays on exactly when it would without the tap.
type sinkTap struct {
	c            *campaignTap
	inner        conferr.Sink
	next, stride int
	buf          []byte
	st           *tapStats
}

// Write implements conferr.Sink.
func (t *sinkTap) Write(r conferr.Record) error {
	t.c.clock.mark()
	seq := t.next
	t.next += t.stride
	d := r.Duration
	r.Duration = 0
	t.buf = profile.AppendJSONLRecord(t.buf[:0], t.c.system, t.c.plugin, seq, r)
	t.st.hashes = append(t.st.hashes, recordHash{seq, fnv64(t.buf[:len(t.buf)-1])})
	r.Duration = d
	if !t.c.traced {
		return t.inner.Write(r)
	}
	t.st.durs = append(t.st.durs, d)
	t0 := time.Now()
	err := t.inner.Write(r)
	t.st.sink += time.Since(t0)
	return err
}

// SinkShardable reports the wrapped sink's capability.
func (t *sinkTap) SinkShardable() bool { return profile.CanShardSink(t.inner) }

// ShardSink taps the wrapped sink's k-th of n shards, which owns
// sequence numbers k, k+n, k+2n, ….
func (t *sinkTap) ShardSink(k, n int) conferr.Sink {
	sub := t.inner.(profile.ShardableSink).ShardSink(k, n)
	return &sinkTap{c: t.c, inner: sub, next: k, stride: n, st: t.c.newStats()}
}

// lineTap is a record tap in front of the dist coordinator's output,
// which receives one merged JSONL line per Write in sequence order.
type lineTap struct {
	c   *campaignTap
	w   io.Writer
	seq int
	st  *tapStats
}

func (c *campaignTap) lines(w io.Writer) *lineTap {
	return &lineTap{c: c, w: w, st: c.newStats()}
}

// Write implements io.Writer.
func (t *lineTap) Write(p []byte) (int, error) {
	t.c.clock.mark()
	line := bytes.TrimSuffix(p, []byte("\n"))
	t.st.hashes = append(t.st.hashes, recordHash{t.seq, fnv64(line)})
	t.seq++
	if !t.c.traced {
		return t.w.Write(p)
	}
	t0 := time.Now()
	n, err := t.w.Write(p)
	t.st.sink += time.Since(t0)
	return n, err
}

// digest folds the campaign's record hashes in sequence order into h.
// Every sequence 0..N-1 must have reached the output exactly once.
func (c *campaignTap) digest(h hash.Hash) error {
	n := 0
	for _, s := range c.taps {
		n += len(s.hashes)
	}
	seen := make([]bool, n)
	ordered := make([]uint64, n)
	for _, s := range c.taps {
		for _, rh := range s.hashes {
			if rh.seq < 0 || rh.seq >= n || seen[rh.seq] {
				return fmt.Errorf("%s/%s: sequence %d reached the output twice or out of range (%d records)",
					c.system, c.plugin, rh.seq, n)
			}
			seen[rh.seq] = true
			ordered[rh.seq] = rh.h
		}
	}
	fmt.Fprintf(h, "%s/%s\n", c.system, c.plugin)
	var b [8]byte
	for _, x := range ordered {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	return nil
}

// recordDigest is the digest of every campaign of a round, in cell
// order.
func recordDigest(cts []*campaignTap) (string, error) {
	h := sha256.New()
	for _, c := range cts {
		if err := c.digest(h); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// profileDigest hashes entries the same way the taps hash records; fed
// every entry of a profile, it yields the digest of what was written.
type profileDigest struct {
	cells map[string]*campaignTap
	buf   []byte
}

func newProfileDigest(cts []*campaignTap) *profileDigest {
	d := &profileDigest{cells: make(map[string]*campaignTap, len(cts))}
	for _, c := range cts {
		d.cells[c.system+"/"+c.plugin] = &campaignTap{system: c.system, plugin: c.plugin}
	}
	return d
}

func (d *profileDigest) add(e conferr.JSONLEntry) {
	c := d.cells[e.System+"/"+e.Generator]
	if c == nil {
		return
	}
	if len(c.taps) == 0 {
		c.taps = []*tapStats{{}}
	}
	r := e.Record
	r.Duration = 0
	d.buf = profile.AppendJSONLRecord(d.buf[:0], e.System, e.Generator, e.Seq, r)
	c.taps[0].hashes = append(c.taps[0].hashes, recordHash{e.Seq, fnv64(d.buf[:len(d.buf)-1])})
}

func (d *profileDigest) sum(order []*campaignTap) (string, error) {
	cts := make([]*campaignTap, len(order))
	for i, c := range order {
		cts[i] = d.cells[c.system+"/"+c.plugin]
	}
	return recordDigest(cts)
}
