package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Distributor settings shared by every workload: the cmd/distributor
// defaults (grouped WAL sync, 50 ms hedging, stripe width 4) plus an
// 8 MiB chunk cache.
const (
	cacheBytes = 8 << 20
	hedgeAfter = 50 * time.Millisecond
)

// fleet is a running loopback deployment built from the public
// constructors: provider.New → NewProviderServer → DialProvider →
// core.New → NewDistributorServer, with NewSystem + NewShardProxy in
// front when the workload asks for a proxy.
type fleet struct {
	w       *workload
	front   string // base URL clients talk to
	dists   []*core.Distributor
	mems    []*provider.MemProvider
	walDirs []string
	servers []*http.Server
	pools   []*http.Transport
	hc      *http.Client // clients' HTTP client
	wire    atomic.Int64 // client-facing body bytes (traced fleets)
}

// startFleet stands w's deployment up, with the distributors' WAL dirs
// under walRoot. A non-nil tr traces every layer boundary.
func startFleet(w *workload, walRoot string, tr *tracer) (f *fleet, err error) {
	f = &fleet{w: w}
	defer func() {
		if err != nil {
			f.close()
			f.removeWAL()
		}
	}()
	provHTTP := &http.Client{Timeout: 30 * time.Second, Transport: f.pool()}
	var distURLs []string
	for s := 0; s < w.shards; s++ {
		fl, err := provider.NewFleet()
		if err != nil {
			return nil, err
		}
		for i := 0; i < w.provs; i++ {
			mem, err := provider.New(provider.Info{Name: fmt.Sprintf("s%dp%d", s, i), PL: privacy.High, CL: 1}, provider.Options{})
			if err != nil {
				return nil, err
			}
			f.mems = append(f.mems, mem)
			var p provider.Provider = mem
			var h http.Handler
			if tr != nil {
				p = &tracedProvider{Provider: mem, t: tr, l: layerStore}
			}
			h = transport.NewProviderServer(p)
			if tr != nil {
				h = tr.middleware(layerProv, -1, h)
			}
			url, err := f.serve(h)
			if err != nil {
				return nil, err
			}
			rp, err := transport.DialProvider(url, provHTTP)
			if err != nil {
				return nil, err
			}
			var remote provider.Provider = rp
			if tr != nil {
				remote = &tracedProvider{Provider: rp, t: tr, l: layerRT}
			}
			if err := fl.Add(remote); err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(walRoot, "wal-")
		if err != nil {
			return nil, err
		}
		f.walDirs = append(f.walDirs, dir)
		d, err := core.New(core.Config{
			Fleet:      fl,
			Secret:     []byte("cloud-data-distributor"),
			CacheBytes: cacheBytes,
			HedgeAfter: hedgeAfter,
			WALDir:     dir,
			WALSync:    wal.SyncGrouped,
		})
		if err != nil {
			return nil, err
		}
		f.dists = append(f.dists, d)
		var h http.Handler = transport.NewDistributorServer(d)
		if tr != nil {
			h = tr.middleware(layerDist, s, h)
		}
		url, err := f.serve(h)
		if err != nil {
			return nil, err
		}
		distURLs = append(distURLs, url)
	}

	f.hc = &http.Client{Timeout: 2 * time.Minute, Transport: f.clientTransport(tr)}
	f.front = distURLs[0]
	if w.proxy {
		proxyHC := &http.Client{Timeout: 2 * time.Minute, Transport: f.clientTransport(tr)}
		sys, err := transport.NewSystem(distURLs, proxyHC)
		if err != nil {
			return nil, err
		}
		var h http.Handler = transport.NewShardProxy(sys)
		if tr != nil {
			h = tr.middleware(layerProxy, -1, h)
		}
		if f.front, err = f.serve(h); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// pool returns a fresh pooled transport the fleet closes at teardown.
func (f *fleet) pool() *http.Transport {
	p := transport.NewPooledTransport()
	f.pools = append(f.pools, p)
	return p
}

// clientTransport is the transport of one client-facing hop, counted
// on traced fleets.
func (f *fleet) clientTransport(tr *tracer) http.RoundTripper {
	if tr == nil {
		return f.pool()
	}
	return wireCounter{next: f.pool(), bytes: &f.wire}
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// client returns a new client of the deployment's front end.
func (f *fleet) client() *transport.Client { return transport.NewClient(f.front, f.hc) }

// register creates every tenant with a password that unlocks PL3.
func (f *fleet) register() error {
	c := f.client()
	for t := 0; t < f.w.tenants; t++ {
		if err := c.RegisterClient(tenantName(t)); err != nil {
			return fmt.Errorf("register %s: %w", tenantName(t), err)
		}
		if err := c.AddPassword(tenantName(t), tenantPassword(t), privacy.High); err != nil {
			return fmt.Errorf("password %s: %w", tenantName(t), err)
		}
	}
	return nil
}

// storedBytes sums the bytes resident on every provider.
func (f *fleet) storedBytes() int64 {
	var n int64
	for _, m := range f.mems {
		n += m.Usage().BytesStored
	}
	return n
}

// metrics sums the distributors' operation counters.
func (f *fleet) metrics() core.OpMetrics {
	var m core.OpMetrics
	for _, d := range f.dists {
		x := d.Metrics()
		m.Reconstructions += x.Reconstructions
		m.HedgedReads += x.HedgedReads
		m.Cache.Hits += x.Cache.Hits
		m.Cache.Misses += x.Cache.Misses
		m.Cache.Evictions += x.Cache.Evictions
		m.WAL.Records += x.WAL.Records
		m.WAL.Fsyncs += x.WAL.Fsyncs
		m.WAL.Checkpoints += x.WAL.Checkpoints
	}
	return m
}

// liveChunks counts the data chunks the distributors' tables hold.
func (f *fleet) liveChunks() int {
	n := 0
	for _, d := range f.dists {
		n += d.Stats().Chunks
	}
	return n
}

// close stops the servers, closes the distributors (which writes their
// final checkpoints) and leaves the WAL dirs for the caller to inspect
// or remove with removeWAL.
func (f *fleet) close() {
	var wg sync.WaitGroup
	for _, s := range f.servers {
		wg.Add(1)
		go func(s *http.Server) {
			defer wg.Done()
			_ = s.Close()
		}(s)
	}
	wg.Wait()
	for _, d := range f.dists {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := d.Close(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close distributor: %v\n", err)
		}
		cancel()
	}
	for _, p := range f.pools {
		p.CloseIdleConnections()
	}
}

func (f *fleet) removeWAL() {
	for _, d := range f.walDirs {
		_ = os.RemoveAll(d)
	}
}
