package main

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// sequence returns the first n ops of every tenant of w under seed.
func sequence(w *workload, seed int64, n int) []op {
	var out []op
	for t := 0; t < w.tenants; t++ {
		g := newGenerator(w, seed, t)
		for i := 0; i < n; i++ {
			out = append(out, g.nextOp())
		}
	}
	return out
}

func TestSequenceDependsOnSeedOnly(t *testing.T) {
	for _, w := range workloads {
		a, b := sequence(w, 42, 500), sequence(w, 42, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different op sequences", w.name)
		}
		if reflect.DeepEqual(a, sequence(w, 43, 500)) {
			t.Errorf("%s: seeds 42 and 43 gave the same op sequence", w.name)
		}
		seen := map[opKind]bool{}
		for _, o := range a {
			seen[o.kind] = true
			if o.kind == opRange && (o.n < 1 || o.off < 0 || o.off+o.n > w.size) {
				t.Fatalf("%s: range [%d,+%d) outside a %d-byte object", w.name, o.off, o.n, w.size)
			}
		}
		for k, m := range w.mix {
			if m > 0 && !seen[opKind(k)] {
				t.Errorf("%s: no %s op in 500 draws", w.name, opKind(k))
			}
		}
	}
}

func TestNamespaceStaysAtPreloadSize(t *testing.T) {
	w, _ := findWorkload("pl3-decoy-proxy")
	g := newGenerator(w, 3, 0)
	live := map[int]bool{}
	for _, o := range g.preload() {
		live[o.serial] = true
	}
	for i := 0; i < 1000; i++ {
		o := g.nextOp()
		if o.kind == opPut {
			if !live[o.victim.serial] || live[o.obj.serial] {
				t.Fatalf("op %d: put %d replacing %d is not fresh-over-live", i, o.obj.serial, o.victim.serial)
			}
			delete(live, o.victim.serial)
			live[o.obj.serial] = true
		} else if !live[o.obj.serial] {
			t.Fatalf("op %d: %s of object %d that is not live", i, o.kind, o.obj.serial)
		}
		if len(live) != w.objects {
			t.Fatalf("op %d: %d live objects, want %d", i, len(live), w.objects)
		}
	}
}

func TestContentIsRandomAccess(t *testing.T) {
	const size = 10007
	whole := make([]byte, size)
	fillContent(whole, 5, 0)
	for _, r := range [][2]int{{0, 1}, {3, 17}, {8, 8}, {4093, 900}, {size - 5, 5}} {
		part := make([]byte, r[1])
		fillContent(part, 5, r[0])
		if !bytes.Equal(part, whole[r[0]:r[0]+r[1]]) {
			t.Fatalf("range %v differs from the whole object", r)
		}
	}
	streamed, err := io.ReadAll(&contentReader{key: 5, size: size})
	if err != nil || !bytes.Equal(streamed, whole) {
		t.Fatalf("contentReader differs from fillContent (err %v)", err)
	}
	v := &verifyWriter{key: 5, size: size}
	_, _ = v.Write(whole[:1000])
	_, _ = v.Write(whole[1000:])
	if !v.ok() {
		t.Fatal("verifyWriter rejected the right content")
	}
	short := &verifyWriter{key: 5, size: size}
	_, _ = short.Write(whole[:size-1])
	if short.ok() {
		t.Fatal("verifyWriter accepted a short body")
	}
}

// shortSerialRun runs a few serial traced ops and returns the counts the
// determinism test compares.
func shortSerialRun(t *testing.T, w *workload, seed int64, ops int) map[string]float64 {
	t.Helper()
	cfg := passConfig{w: w, seed: seed, ops: ops, walRoot: t.TempDir(), tr: newTracer()}
	r, err := serialPass(cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	out := map[string]float64{
		"stored_bytes_per_user_byte": float64(r.stored) / float64(w.liveBytes()),
		"error_rate":                 ratio(float64(r.failed), float64(r.calls())),
	}
	for _, m := range perLayer(w, r, r, kernelRates{}) {
		if m.name == "provider.puts_per_write" || m.name == "wal.records_per_op" {
			out[m.name] = m.value
		}
	}
	return out
}

func TestShortSerialRunIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up three deployments twice")
	}
	for _, w := range workloads {
		ops := 40
		if w.stream {
			ops = 6
		}
		a := shortSerialRun(t, w, 11, ops)
		b := shortSerialRun(t, w, 11, ops)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different counts:\n  %v\n  %v", w.name, a, b)
		}
		if a["error_rate"] != 0 {
			t.Errorf("%s: error_rate %v on a healthy fleet", w.name, a["error_rate"])
		}
		if a["provider.puts_per_write"] == 0 || a["wal.records_per_op"] == 0 {
			t.Errorf("%s: counts not measured: %v", w.name, a)
		}
	}
}
