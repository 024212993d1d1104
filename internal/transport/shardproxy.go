package transport

import (
	"io"
	"net/http"

	"repro/internal/privacy"
)

// ShardProxy serves the DistributorServer wire surface in front of a
// sharded System: clients keep speaking the single-distributor protocol
// while every per-file route is forwarded verbatim to the shard owning
// its ⟨client, filename⟩ key. This is the deployment shape for clients
// that cannot embed the router; anything that can should use System
// directly and skip the extra hop. Account operations fan out and
// aggregate endpoints merge across shards; blobs are never parsed or
// held, only streamed through.
type ShardProxy struct {
	sys *System
	mux *http.ServeMux
	// fwd carries forwarded requests over the System's transport with no
	// overall timeout: large-object streams are legitimately long-lived,
	// and the downstream request's context still bounds each one.
	fwd   *http.Client
	retry *retrier
}

// NewShardProxy builds the proxy handler over a sharded system.
func NewShardProxy(sys *System) *ShardProxy {
	p := &ShardProxy{
		sys:   sys,
		mux:   http.NewServeMux(),
		fwd:   &http.Client{Transport: sys.shards[0].http.Transport},
		retry: newRetrier(),
	}
	p.mux.HandleFunc("POST /v1/clients", p.registerClient)
	p.mux.HandleFunc("POST /v1/passwords", p.addPassword)
	for _, rt := range fileRoutes {
		p.mux.HandleFunc(rt.pattern, p.forward)
	}
	p.mux.HandleFunc("POST /v1/admin/scrub", p.scrub)
	p.mux.HandleFunc("GET /v1/stats", p.stats)
	p.mux.HandleFunc("GET /v1/health", p.health)
	p.mux.HandleFunc("GET /v1/locate", p.locate)
	return p
}

// ServeHTTP implements http.Handler.
func (p *ShardProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mux.ServeHTTP(w, r)
}

func (p *ShardProxy) registerClient(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[clientReq](w, r)
	if !ok {
		return
	}
	writeDone(w, p.sys.RegisterClient(req.Name))
}

func (p *ShardProxy) addPassword(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[passwordReq](w, r)
	if !ok {
		return
	}
	writeDone(w, p.sys.AddPassword(req.Client, req.Password, privacy.Level(req.PL)))
}

func (p *ShardProxy) scrub(w http.ResponseWriter, _ *http.Request) {
	rep, err := p.sys.Scrub()
	writeResult(w, rep, err)
}

func (p *ShardProxy) stats(w http.ResponseWriter, _ *http.Request) {
	st, err := p.sys.Stats()
	writeResult(w, st, err)
}

// health merges every shard's health: overall status degrades if any
// shard does (or is unreachable), provider and replication rows
// concatenate in shard order.
func (p *ShardProxy) health(w http.ResponseWriter, _ *http.Request) {
	out := HealthReport{Status: "ok"}
	for i := 0; i < p.sys.Shards(); i++ {
		rep, err := p.sys.Shard(i).HealthReport()
		if err != nil {
			out.Status = "degraded"
			continue
		}
		if rep.Status != "ok" {
			out.Status = "degraded"
		}
		out.Providers = append(out.Providers, rep.Providers...)
		out.Replication = append(out.Replication, rep.Replication...)
	}
	writeJSON(w, out)
}

// locate is GET /v1/locate?client=C&filename=F: the router's decision
// for one file, as JSON. Purely local — no shard round-trip.
func (p *ShardProxy) locate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	loc, err := p.sys.Locate(q.Get("client"), q.Get("filename"))
	writeResult(w, loc, err)
}

// forward relays a per-file request verbatim to the shard owning its
// ⟨client, filename⟩: same method, path, query and blobHeaders, with
// both bodies streamed, so the proxy holds one transfer buffer, never
// a blob. A GET whose upstream round trip fails before any response is
// retried with backoff — nothing has reached the client and a read
// replays safely; a mutation goes upstream exactly once, since a
// request that died on the wire may still have been applied. A mid-body
// upstream failure aborts the downstream connection, so truncation
// stays detectable end to end (a short Content-Length body, or chunked
// encoding's missing end marker).
func (p *ShardProxy) forward(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	loc, err := p.sys.Locate(q.Get("client"), q.Get("filename"))
	if err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	target := p.sys.urls[loc.Shard] + r.URL.Path + "?" + r.URL.RawQuery
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, target, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		req.ContentLength = r.ContentLength
		for _, h := range blobHeaders {
			if v := r.Header.Get(h); v != "" {
				req.Header.Set(h, v)
			}
		}
		if resp, err = p.fwd.Do(req); err == nil {
			break
		}
		if r.Method != http.MethodGet || attempt >= netRetries-1 {
			http.Error(w, "shard proxy: "+err.Error(), http.StatusBadGateway)
			return
		}
		p.retry.sleep(p.retry.backoff(attempt))
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Content-Length"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		panic(http.ErrAbortHandler)
	}
}
