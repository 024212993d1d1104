package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// Client calls, the unit every per-op figure is normalised by. A put
// in the op sequence is two calls: the upload and the remove.
const (
	callGet = iota
	callRange
	callPut
	callUpdate
	callRemove
	numCalls
)

var callNames = [numCalls]string{"get", "range", "put", "update", "remove"}

// passConfig describes one pass: a fresh deployment, its preload and a
// fixed number of ops.
type passConfig struct {
	w       *workload
	seed    int64
	ops     int // op-sequence entries over all tenants
	walRoot string
	tr      *tracer
}

// passResult is everything one pass measured.
type passResult struct {
	elapsed     time.Duration
	lat         [numCalls][]time.Duration
	failed      int
	userWritten int64
	userRead    int64
	cpu         time.Duration // process user+sys over the measured ops
	gcCPU       float64       // GC CPU seconds over the measured ops
	mallocs     uint64
	allocBytes  uint64
	heapLive    uint64 // HeapAlloc after a forced GC at the end
	stored      int64  // provider-resident bytes at the end
	before      core.OpMetrics
	after       core.OpMetrics
	wire        int64 // client-facing body bytes over the measured ops
	liveChunks  int
	snapBytes   int64 // final checkpoint sizes, summed over shards
	spans       []span
}

func (r *passResult) calls() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

// setUp stands a deployment up, registers the tenants and preloads every
// tenant's namespace. The returned generators continue from the preload.
func setUp(cfg passConfig) (*fleet, []*generator, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(cfg.w, cfg.walRoot, cfg.tr)
	if err != nil {
		return nil, nil, 0, err
	}
	gens := make([]*generator, cfg.w.tenants)
	for t := range gens {
		gens[t] = newGenerator(cfg.w, cfg.seed, t)
	}
	err = f.register()
	c := newBenchClient(f, cfg, nil)
	for t := 0; t < cfg.w.tenants && err == nil; t++ {
		for _, o := range gens[t].preload() {
			if err = c.upload(t, o); err != nil {
				err = fmt.Errorf("preload %s/%s: %w", tenantName(t), o.name(), err)
				break
			}
		}
	}
	if err != nil {
		f.close()
		f.removeWAL()
		return nil, nil, 0, err
	}
	return f, gens, time.Since(start), nil
}

// measure runs cfg.ops ops over the deployment in a closed loop: one
// client alternates the tenants, each following its own sequence.
func measure(f *fleet, gens []*generator, cfg passConfig) passResult {
	var res passResult
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	cpu0 := processCPU()
	res.before = f.metrics()
	wire0 := f.wire.Load()
	start := time.Now()

	c := newBenchClient(f, cfg, &res)
	for i := 0; i < cfg.ops/len(gens); i++ {
		for _, g := range gens {
			c.do(g.nextOp())
		}
	}

	res.elapsed = time.Since(start)
	res.cpu = processCPU() - cpu0
	res.gcCPU = gcCPUSeconds() - gc0
	res.wire = f.wire.Load() - wire0
	res.after = f.metrics()
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	res.heapLive = ms1.HeapAlloc
	res.stored = f.storedBytes()
	res.liveChunks = f.liveChunks()
	return res
}

// benchClient executes ops against the deployment and verifies every
// byte it reads against the content regenerated from the seed.
type benchClient struct {
	c    *transport.Client
	w    *workload
	seed int64
	tr   *tracer
	res  *passResult // receives latencies and outcomes
	buf  []byte
	want []byte
}

func newBenchClient(f *fleet, cfg passConfig, res *passResult) *benchClient {
	return &benchClient{c: f.client(), w: cfg.w, seed: cfg.seed, tr: cfg.tr, res: res}
}

// payload returns the content of one object version; the buffer is
// reused across calls.
func (c *benchClient) payload(t int, o object) []byte {
	if cap(c.buf) < c.w.size {
		c.buf = make([]byte, c.w.size)
	}
	b := c.buf[:c.w.size]
	fillContent(b, contentKey(c.seed, t, o), 0)
	return b
}

func (c *benchClient) upload(t int, o object) error {
	var err error
	if c.w.stream {
		r := &contentReader{key: contentKey(c.seed, t, o), size: c.w.size}
		_, err = c.c.UploadFrom(tenantName(t), tenantPassword(t), o.name(), r, c.w.pl, c.w.opts)
	} else {
		_, err = c.c.Upload(tenantName(t), tenantPassword(t), o.name(), c.payload(t, o), c.w.pl, c.w.opts)
	}
	return err
}

// do executes one op, timing and verifying each of its calls.
func (c *benchClient) do(o op) {
	tn, pw, name := tenantName(o.tenant), tenantPassword(o.tenant), o.obj.name()
	switch o.kind {
	case opGet:
		c.call(callGet, 0, int64(c.w.size), func() error {
			if c.w.stream {
				v := &verifyWriter{key: contentKey(c.seed, o.tenant, o.obj), size: c.w.size, scratch: c.want}
				_, err := c.c.GetFileTo(v, tn, pw, name)
				c.want = v.scratch
				if err == nil && !v.ok() {
					err = fmt.Errorf("get %s/%s: content mismatch", tn, name)
				}
				return err
			}
			got, err := c.c.GetFile(tn, pw, name)
			if err == nil && !bytes.Equal(got, c.payload(o.tenant, o.obj)) {
				err = fmt.Errorf("get %s/%s: content mismatch (%d bytes)", tn, name, len(got))
			}
			return err
		})
	case opRange:
		c.call(callRange, 0, int64(o.n), func() error {
			got, err := c.c.GetRange(tn, pw, name, o.off, o.n)
			if err != nil {
				return err
			}
			if cap(c.want) < o.n {
				c.want = make([]byte, o.n)
			}
			want := c.want[:o.n]
			fillContent(want, contentKey(c.seed, o.tenant, o.obj), o.off)
			if !bytes.Equal(got, want) {
				return fmt.Errorf("range %s/%s [%d,+%d): content mismatch (%d bytes)", tn, name, o.off, o.n, len(got))
			}
			return nil
		})
	case opPut:
		c.call(callPut, int64(c.w.size), 0, func() error { return c.upload(o.tenant, o.obj) })
		c.call(callRemove, 0, 0, func() error { return c.c.RemoveFile(tn, pw, o.victim.name()) })
	case opUpdate:
		c.call(callUpdate, int64(c.w.size), 0, func() error {
			return c.c.UpdateChunk(tn, pw, name, 0, c.payload(o.tenant, o.obj))
		})
	}
}

func (c *benchClient) call(kind int, written, read int64, fn func() error) {
	var start int64
	if c.tr != nil {
		start = c.tr.now()
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if c.tr != nil {
		c.tr.add(span{layer: layerClient, name: callNames[kind], unit: -1, start: start, end: c.tr.now()})
	}
	c.res.lat[kind] = append(c.res.lat[kind], d)
	c.res.userWritten += written
	c.res.userRead += read
	if err != nil {
		if c.res.failed < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", callNames[kind], err)
		}
		c.res.failed++
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSeconds is the runtime's estimate of CPU spent in GC so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
