package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// flipOnce flips one byte in the body of the first response to a
// request whose path ends in route.
type flipOnce struct {
	next    http.RoundTripper
	route   string
	flipped *atomic.Bool
}

func (f flipOnce) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := f.next.RoundTrip(r)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasSuffix(r.URL.Path, f.route) || f.flipped.Load() {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(body) > 0 && f.flipped.CompareAndSwap(false, true) {
		body[len(body)/2] ^= 0x20
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

func TestFlippedResponseByteCountsAsFailedOp(t *testing.T) {
	cases := []struct{ workload, route string }{
		{"small-churn", "/v1/get_file"},
		{"small-churn", "/v1/get_range"},
		{"large-stream", "/v1/stream/file"},
	}
	for _, c := range cases {
		w, err := findWorkload(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		if testing.Short() && w.stream {
			continue
		}
		var flipped atomic.Bool
		cfg := passConfig{w: w, seed: 5, ops: 60, walRoot: t.TempDir()}
		if w.stream {
			cfg.ops = 8
		}
		f, gens, _, err := setUp(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt reads only once the preload is in place.
		f.hc.Transport = flipOnce{next: f.hc.Transport, route: c.route, flipped: &flipped}
		r := measure(f, gens, cfg)
		f.close()
		f.removeWAL()
		if !flipped.Load() {
			t.Fatalf("%s %s: no response was corrupted", c.workload, c.route)
		}
		if r.failed != 1 {
			t.Errorf("%s %s: %d of %d calls failed, want exactly the corrupted one", c.workload, c.route, r.failed, r.calls())
		}
	}
}
