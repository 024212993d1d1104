package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/privacy"
	"repro/internal/transport"
)

// opKind is one entry of a client's op sequence.
type opKind int

const (
	opGet    opKind = iota // GetFile, or GetFileTo on a stream workload
	opRange                // GetRange
	opPut                  // upload a fresh object, then remove a random live one
	opUpdate               // UpdateChunk of serial 0 with the next version
)

var opNames = [...]string{"get", "range", "put", "update"}

func (k opKind) String() string { return opNames[k] }

// rangeCap bounds the length of one range read.
const rangeCap = 64 << 10

// workload fixes a deployment, a preloaded namespace and an op mix.
// The op budget of a run is opsPerSec × --seconds, so the work a run
// does depends on its arguments only, never on how fast the host is.
type workload struct {
	name      string
	shards    int  // distributors
	provs     int  // providers per distributor
	proxy     bool // clients reach the shards through one ShardProxy
	tenants   int
	objects   int // live objects per tenant, held constant by put-replace
	size      int // bytes per object
	pl        privacy.Level
	opts      transport.UploadOptions
	stream    bool // puts and gets use UploadFrom / GetFileTo
	mix       [4]int
	opsPerSec float64
}

// The three workloads stress different layers; see README.md for the
// reasons and the layer→metric map.
var workloads = []*workload{
	{
		name:    "small-churn",
		shards:  1,
		provs:   6,
		tenants: 2,
		objects: 512,
		size:    4 << 10,
		pl:      privacy.Low,
		mix:     [4]int{opGet: 55, opRange: 15, opPut: 25, opUpdate: 5},
		// Nominal rate; the real one depends on the host.
		opsPerSec: 2000,
	},
	{
		name:      "pl3-decoy-proxy",
		shards:    2,
		provs:     4,
		proxy:     true,
		tenants:   2,
		objects:   64,
		size:      256 << 10,
		pl:        privacy.High,
		opts:      transport.UploadOptions{MisleadFraction: 0.2},
		mix:       [4]int{opGet: 50, opRange: 20, opPut: 30},
		opsPerSec: 60,
	},
	{
		name:      "large-stream",
		shards:    1,
		provs:     6,
		tenants:   2,
		objects:   3,
		size:      16 << 20,
		pl:        privacy.Public,
		opts:      transport.UploadOptions{EncryptKey: []byte("perfbench-large-stream-key-32-b!")},
		stream:    true,
		mix:       [4]int{opPut: 45, opGet: 45, opRange: 10},
		opsPerSec: 15,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// object is one version of one named object of a tenant.
type object struct {
	serial  int
	version int
}

func (o object) name() string { return fmt.Sprintf("obj%07d", o.serial) }

func tenantName(t int) string     { return fmt.Sprintf("tenant%d", t) }
func tenantPassword(t int) string { return fmt.Sprintf("pw-%d", t) }

// op is one generated operation. The system under test sees only these
// inputs and the content derived from them.
type op struct {
	kind   opKind
	tenant int
	obj    object // object read, uploaded or updated (its new version)
	victim object // put: the live object removed after the upload
	off, n int    // range
}

// generator produces one tenant's op sequence from its own model of the
// namespace, so the sequence depends on the seed alone.
type generator struct {
	w      *workload
	tenant int
	rng    *rand.Rand
	live   []object
	next   int
	weight int
}

func newGenerator(w *workload, seed int64, tenant int) *generator {
	g := &generator{
		w:      w,
		tenant: tenant,
		rng:    rand.New(rand.NewSource(int64(mix64(uint64(seed), uint64(tenant)+1) >> 1))),
		live:   make([]object, w.objects),
	}
	for i := range g.live {
		g.live[i] = object{serial: i}
	}
	g.next = w.objects
	for _, m := range w.mix {
		g.weight += m
	}
	return g
}

// preload returns the objects the namespace starts with.
func (g *generator) preload() []object { return append([]object(nil), g.live...) }

func (g *generator) nextOp() op {
	pick := g.rng.Intn(g.weight)
	kind := opGet
	for k, m := range g.w.mix {
		if pick < m {
			kind = opKind(k)
			break
		}
		pick -= m
	}
	slot := g.rng.Intn(len(g.live))
	o := op{kind: kind, tenant: g.tenant, obj: g.live[slot]}
	switch kind {
	case opRange:
		o.n = 1 + g.rng.Intn(min(rangeCap, g.w.size))
		o.off = g.rng.Intn(g.w.size - o.n + 1)
	case opPut:
		o.victim = g.live[slot]
		o.obj = object{serial: g.next}
		g.next++
		g.live[slot] = o.obj
	case opUpdate:
		g.live[slot].version++
		o.obj = g.live[slot]
	}
	return o
}

// liveBytes is the user data the namespace holds at any quiescent point.
func (w *workload) liveBytes() int64 { return int64(w.tenants) * int64(w.objects) * int64(w.size) }

// mix64 is the splitmix64 finaliser over a ^ b·φ: a cheap, well-mixed
// 64-bit hash.
func mix64(a, b uint64) uint64 {
	z := a ^ (b * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// contentKey identifies the bytes of one object version under a seed.
func contentKey(seed int64, tenant int, o object) uint64 {
	k := mix64(uint64(seed), uint64(tenant)+0x100)
	k = mix64(k, uint64(o.serial)+1)
	return mix64(k, uint64(o.version)+1)
}

// fillContent writes the bytes at [off, off+len(dst)) of the object
// whose content key is key. Word i of an object is mix64(key, i), so any
// range can be produced without the bytes before it.
func fillContent(dst []byte, key uint64, off int) {
	var w [8]byte
	i := 0
	for i < len(dst) {
		pos := off + i
		word := uint64(pos / 8)
		if pos%8 == 0 && len(dst)-i >= 8 {
			binary.LittleEndian.PutUint64(dst[i:], mix64(key, word))
			i += 8
			continue
		}
		binary.LittleEndian.PutUint64(w[:], mix64(key, word))
		n := copy(dst[i:], w[pos%8:])
		i += n
	}
}

// contentReader streams an object's content for UploadFrom.
type contentReader struct {
	key       uint64
	off, size int
}

func (r *contentReader) Read(p []byte) (int, error) {
	if r.off >= r.size {
		return 0, io.EOF
	}
	n := min(len(p), r.size-r.off)
	fillContent(p[:n], r.key, r.off)
	r.off += n
	return n, nil
}

// verifyWriter compares a streamed body against the expected content
// without holding the object.
type verifyWriter struct {
	key     uint64
	off     int
	size    int
	bad     bool
	scratch []byte
}

func (v *verifyWriter) Write(p []byte) (int, error) {
	if v.off+len(p) > v.size {
		v.bad = true
	} else {
		if cap(v.scratch) < len(p) {
			v.scratch = make([]byte, len(p))
		}
		want := v.scratch[:len(p)]
		fillContent(want, v.key, v.off)
		if !bytes.Equal(want, p) {
			v.bad = true
		}
	}
	v.off += len(p)
	return len(p), nil
}

// ok reports whether exactly the expected bytes arrived.
func (v *verifyWriter) ok() bool { return !v.bad && v.off == v.size }
