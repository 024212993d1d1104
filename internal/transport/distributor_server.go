package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/privacy"
)

// DistributorServer exposes a Cloud Data Distributor over HTTP — the
// surface clients use ("Clients do not interact with Cloud Providers
// directly rather via Cloud Data Distributor").
type DistributorServer struct {
	d   *core.Distributor
	mux *http.ServeMux
	// lagSource, when set, contributes the replication section of
	// /v1/health (see SetLagSource).
	lagSource func() []core.ReplicaLag
}

// fileRoutes is the per-file data surface. Every route addresses one
// ⟨client, filename⟩ through its query string and carries blobs as raw
// octets (see stream.go), so a ShardProxy routes all of them with one
// forwarder and never parses a body.
var fileRoutes = []struct {
	pattern string
	serve   func(*DistributorServer, http.ResponseWriter, *http.Request)
}{
	{"POST /v1/upload", (*DistributorServer).upload},
	{"GET /v1/get_file", (*DistributorServer).getFile},
	{"GET /v1/stream/file", (*DistributorServer).streamFile},
	{"GET /v1/get_range", (*DistributorServer).getRange},
	{"GET /v1/get_chunk", (*DistributorServer).getChunk},
	{"GET /v1/get_snapshot", (*DistributorServer).getSnapshot},
	{"GET /v1/chunk_count", (*DistributorServer).chunkCount},
	{"POST /v1/update_chunk", (*DistributorServer).updateChunk},
	{"POST /v1/remove_chunk", (*DistributorServer).removeChunk},
	{"POST /v1/remove_file", (*DistributorServer).removeFile},
}

// NewDistributorServer wraps a distributor.
func NewDistributorServer(d *core.Distributor) *DistributorServer {
	s := &DistributorServer{d: d, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/clients", s.registerClient)
	s.mux.HandleFunc("POST /v1/passwords", s.addPassword)
	for _, rt := range fileRoutes {
		serve := rt.serve
		s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { serve(s, w, r) })
	}
	s.mux.HandleFunc("GET /v1/tables/providers", s.providerTable)
	s.mux.HandleFunc("GET /v1/tables/clients", s.clientTable)
	s.mux.HandleFunc("GET /v1/tables/chunks", s.chunkTable)
	s.mux.HandleFunc("POST /v1/admin/scrub", s.scrub)
	s.mux.HandleFunc("POST /v1/admin/decommission", s.decommission)
	s.mux.HandleFunc("GET /v1/stats", s.stats)
	s.mux.HandleFunc("GET /v1/metrics", s.metrics)
	s.mux.HandleFunc("GET /v1/health", s.health)
	return s
}

// ServeHTTP implements http.Handler.
func (s *DistributorServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// coreStatus maps distributor errors onto HTTP statuses; the client maps
// them back, so error identity survives the wire.
func coreStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrAuth):
		return http.StatusForbidden
	case errors.Is(err, core.ErrNoSuchFile), errors.Is(err, core.ErrNoSuchChunk), errors.Is(err, core.ErrNoSnapshot):
		return http.StatusNotFound
	case errors.Is(err, core.ErrExists), errors.Is(err, core.ErrConflict):
		return http.StatusConflict
	case errors.Is(err, core.ErrRange):
		return http.StatusRequestedRangeNotSatisfiable
	case errors.Is(err, core.ErrPlacement):
		return http.StatusInsufficientStorage
	case errors.Is(err, core.ErrUnavailable), errors.Is(err, core.ErrCircuitOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrConfig):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// maxControlBody caps a JSON control-plane request body; the largest
// legitimate one is a client name and a password.
const maxControlBody = 64 << 10

// maxBlobBody caps every request body the server buffers: an
// update_chunk payload and an upload's decoy block. It is a variable
// (normally maxBlobBytes) only so tests can lower it.
var maxBlobBody int64 = maxBlobBytes

// bodyError answers a request whose body could not be read: 413 when
// it ran past its cap, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
}

func decode[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var v T
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(&v); err != nil {
		bodyError(w, err)
		return v, false
	}
	return v, true
}

// Control-plane DTOs. No blob travels in JSON.

type clientReq struct {
	Name string `json:"name"`
}

type passwordReq struct {
	Client   string `json:"client"`
	Password string `json:"password"`
	PL       int    `json:"pl"`
}

// fileArgs is one per-file request's addressing: client and filename
// from the query, the password from the X-Password header, and the
// route's integer parameters in the order the handler asked for them.
type fileArgs struct {
	client, password, filename string
	n                          []int
	q                          url.Values
}

// parseFileArgs reads a per-file request's addressing plus the named
// integer query parameters. On failure it has already answered 400.
func parseFileArgs(w http.ResponseWriter, r *http.Request, ints ...string) (fileArgs, bool) {
	password, err := headerB64(r, headerPassword)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return fileArgs{}, false
	}
	q := r.URL.Query()
	a := fileArgs{client: q.Get("client"), password: string(password), filename: q.Get("filename"), q: q}
	for _, name := range ints {
		n, err := strconv.Atoi(q.Get(name))
		if err != nil {
			http.Error(w, fmt.Sprintf("bad %s: %v", name, err), http.StatusBadRequest)
			return fileArgs{}, false
		}
		a.n = append(a.n, n)
	}
	return a, true
}

// writeBlob answers a read with its raw bytes, or with err's status.
func writeBlob(w http.ResponseWriter, data []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// writeResult answers with v as JSON, or with err's status.
func writeResult(w http.ResponseWriter, v any, err error) {
	if err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	writeJSON(w, v)
}

// writeDone answers a mutation with 204, or with err's status.
func writeDone(w http.ResponseWriter, err error) {
	if err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *DistributorServer) registerClient(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[clientReq](w, r)
	if !ok {
		return
	}
	writeDone(w, s.d.RegisterClient(req.Name))
}

func (s *DistributorServer) addPassword(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[passwordReq](w, r)
	if !ok {
		return
	}
	writeDone(w, s.d.AddPassword(req.Client, req.Password, privacy.Level(req.PL)))
}

func (s *DistributorServer) getChunk(w http.ResponseWriter, r *http.Request) {
	if a, ok := parseFileArgs(w, r, "serial"); ok {
		data, err := s.d.GetChunk(a.client, a.password, a.filename, a.n[0])
		writeBlob(w, data, err)
	}
}

func (s *DistributorServer) getFile(w http.ResponseWriter, r *http.Request) {
	if a, ok := parseFileArgs(w, r); ok {
		data, err := s.d.GetFile(a.client, a.password, a.filename)
		writeBlob(w, data, err)
	}
}

func (s *DistributorServer) getSnapshot(w http.ResponseWriter, r *http.Request) {
	if a, ok := parseFileArgs(w, r, "serial"); ok {
		data, err := s.d.GetSnapshot(a.client, a.password, a.filename, a.n[0])
		writeBlob(w, data, err)
	}
}

func (s *DistributorServer) getRange(w http.ResponseWriter, r *http.Request) {
	if a, ok := parseFileArgs(w, r, "offset", "length"); ok {
		data, err := s.d.GetRange(a.client, a.password, a.filename, a.n[0], a.n[1])
		writeBlob(w, data, err)
	}
}

// updateChunk is POST /v1/update_chunk: the request body is the new
// chunk, buffered up to maxBlobBody.
func (s *DistributorServer) updateChunk(w http.ResponseWriter, r *http.Request) {
	a, ok := parseFileArgs(w, r, "serial")
	if !ok {
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBody))
	if err != nil {
		bodyError(w, err)
		return
	}
	writeDone(w, s.d.UpdateChunk(a.client, a.password, a.filename, a.n[0], data, core.UploadOptions{}))
}

func (s *DistributorServer) removeChunk(w http.ResponseWriter, r *http.Request) {
	if a, ok := parseFileArgs(w, r, "serial"); ok {
		writeDone(w, s.d.RemoveChunk(a.client, a.password, a.filename, a.n[0]))
	}
}

func (s *DistributorServer) removeFile(w http.ResponseWriter, r *http.Request) {
	if a, ok := parseFileArgs(w, r); ok {
		writeDone(w, s.d.RemoveFile(a.client, a.password, a.filename))
	}
}

func (s *DistributorServer) chunkCount(w http.ResponseWriter, r *http.Request) {
	if a, ok := parseFileArgs(w, r); ok {
		n, err := s.d.ChunkCount(a.client, a.password, a.filename)
		writeResult(w, map[string]int{"chunks": n}, err)
	}
}

func (s *DistributorServer) scrub(w http.ResponseWriter, _ *http.Request) {
	rep, err := s.d.Scrub()
	writeResult(w, rep, err)
}

type decommissionReq struct {
	ProviderIndex int `json:"providerIndex"`
}

func (s *DistributorServer) decommission(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[decommissionReq](w, r)
	if !ok {
		return
	}
	rep, err := s.d.Decommission(req.ProviderIndex)
	writeResult(w, rep, err)
}

func (s *DistributorServer) providerTable(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.d.ProviderTable())
}

func (s *DistributorServer) clientTable(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.d.ClientTable())
}

func (s *DistributorServer) chunkTable(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.d.ChunkTable())
}

func (s *DistributorServer) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.d.Stats())
}

func (s *DistributorServer) metrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.d.Metrics())
}

// HealthReport is the GET /v1/health body: overall status, the
// per-provider circuit-breaker view, the chunk-cache counters
// (hits/misses/evictions/bytes; capacity 0 means caching is disabled),
// the durability view (records appended, fsyncs, replay count and
// last-checkpoint age; enabled=false means in-memory metadata), and —
// when this distributor fronts a replicated cluster — each member's
// replication position, so a lagging or down secondary is visible
// instead of silently serving stale generations.
type HealthReport struct {
	Status      string                `json:"status"`
	Providers   []core.ProviderHealth `json:"providers"`
	Cache       core.CacheStats       `json:"cache"`
	WAL         core.WALHealth        `json:"wal"`
	Replication []core.ReplicaLag     `json:"replication,omitempty"`
}

// SetLagSource wires a replication-lag reporter (typically
// core.Cluster.Lag) into /v1/health. Call before serving; a nil fn
// removes the section.
func (s *DistributorServer) SetLagSource(fn func() []core.ReplicaLag) {
	s.lagSource = fn
}

func (s *DistributorServer) health(w http.ResponseWriter, _ *http.Request) {
	provs := s.d.Health()
	status := "ok"
	for _, p := range provs {
		if p.State != "closed" {
			status = "degraded"
			break
		}
	}
	rep := HealthReport{Status: status, Providers: provs, Cache: s.d.CacheHealth(), WAL: s.d.WALHealth()}
	if s.lagSource != nil {
		rep.Replication = s.lagSource()
		for _, m := range rep.Replication {
			if m.Down || m.LagRecords > 0 {
				rep.Status = "degraded"
			}
		}
	}
	writeJSON(w, rep)
}
