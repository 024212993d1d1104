package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provider"
)

// layer is the boundary a span was recorded at, outermost first.
type layer int

const (
	layerClient layer = iota // the benchmark's call into transport.Client
	layerProxy               // ShardProxy handler
	layerDist                // DistributorServer handler
	layerRT                  // RemoteProvider call (distributor → provider round trip)
	layerProv                // ProviderServer handler
	layerStore               // MemProvider call
)

var layerNames = [...]string{"client", "proxy", "dist", "rt", "prov", "store"}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	layer      layer
	name       string // client op, route, or provider method
	unit       int    // shard index for dist spans, -1 otherwise
	start, end int64
	bytes      int64 // payload bytes of provider puts and gets
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far, sorted by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// writeFile writes the spans as tab-separated lines:
// layer, name, unit, start_ns, end_ns, bytes.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.snapshot() {
		fmt.Fprintf(bw, "%s\t%s\t%d\t%d\t%d\t%d\n", layerNames[s.layer], s.name, s.unit, s.start, s.end, s.bytes)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// middleware records one span per request served by h.
func (t *tracer) middleware(l layer, unit int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{layer: l, name: routeName(r), unit: unit, start: start, end: t.now()})
	})
}

// routeName names a request by its route: "upload" for /v1/upload,
// "stream_file" for /v1/stream/file, "PUT" for a provider chunk put.
func routeName(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/v1/")
	if strings.HasPrefix(p, "chunks/") {
		return r.Method
	}
	return strings.ReplaceAll(p, "/", "_")
}

// tracedProvider records a span around every data-plane call and
// liveness probe of the provider it wraps.
type tracedProvider struct {
	provider.Provider
	t *tracer
	l layer
}

func (p *tracedProvider) Put(key string, data []byte) error {
	start := p.t.now()
	err := p.Provider.Put(key, data)
	p.t.add(span{layer: p.l, name: "PUT", unit: -1, start: start, end: p.t.now(), bytes: int64(len(data))})
	return err
}

func (p *tracedProvider) Get(key string) ([]byte, error) {
	start := p.t.now()
	b, err := p.Provider.Get(key)
	p.t.add(span{layer: p.l, name: "GET", unit: -1, start: start, end: p.t.now(), bytes: int64(len(b))})
	return b, err
}

func (p *tracedProvider) Delete(key string) error {
	start := p.t.now()
	err := p.Provider.Delete(key)
	p.t.add(span{layer: p.l, name: "DELETE", unit: -1, start: start, end: p.t.now()})
	return err
}

func (p *tracedProvider) Down() bool {
	start := p.t.now()
	down := p.Provider.Down()
	p.t.add(span{layer: p.l, name: "probe", unit: -1, start: start, end: p.t.now()})
	return down
}

// wireCounter counts the body bytes a client-facing HTTP hop carries in
// both directions.
type wireCounter struct {
	next  http.RoundTripper
	bytes *atomic.Int64
}

func (c wireCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body = &countingBody{ReadCloser: r.Body, n: c.bytes}
	}
	resp, err := c.next.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: c.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// interval is a half-open [lo, hi) time range in nanoseconds.
type interval struct{ lo, hi int64 }

// coveredWithin returns how much of parent the union of children
// covers. Overlapping children count once; parts outside parent do not
// count.
func coveredWithin(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if lo < hi {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var covered int64
	cur := interval{-1, -1}
	for _, c := range clipped {
		if c.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = c
			continue
		}
		cur.hi = max(cur.hi, c.hi)
	}
	return covered + cur.hi - cur.lo
}

// selfTime is a span's duration minus the union of its children: the
// time the layer spent on its own. It is never negative.
func selfTime(parent interval, children []interval) int64 {
	return parent.hi - parent.lo - coveredWithin(parent, children)
}

// attribute groups spans under the client op whose interval contains
// their start. In a serial run client ops do not overlap, so every
// server-side span belongs to exactly one op. ops must be sorted by
// start; spans falling outside every op are dropped.
func attribute(ops []span, spans []span) [][]span {
	out := make([][]span, len(ops))
	for _, s := range spans {
		i := sort.Search(len(ops), func(i int) bool { return ops[i].start > s.start }) - 1
		if i >= 0 && s.start <= ops[i].end {
			out[i] = append(out[i], s)
		}
	}
	return out
}
