package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// lowerBlobBody shrinks the server-side buffered-body cap for one test.
func lowerBlobBody(t *testing.T, n int64) {
	t.Helper()
	old := maxBlobBody
	maxBlobBody = n
	t.Cleanup(func() { maxBlobBody = old })
}

// storedBytes sums the bytes resident on every provider behind dists.
func storedBytes(t *testing.T, dists []*core.Distributor) int64 {
	t.Helper()
	var n int64
	for _, d := range dists {
		for _, p := range d.Providers().All() {
			n += p.(*provider.MemProvider).Usage().BytesStored
		}
	}
	return n
}

// TestMisleadLinesReachEveryFrontEnd pins that decoy records ride the
// one upload route from every front end — a Client at the owning
// distributor, the sharded System, and a Client through a ShardProxy —
// on both the buffered and the io.Reader entry point. Providers must
// store more than the user's bytes, and reads must strip every decoy,
// including an empty record and one with an embedded newline.
func TestMisleadLinesReachEveryFrontEnd(t *testing.T) {
	sys, dists := shardFixture(t, 2, 4)
	proxy := httptest.NewServer(NewShardProxy(sys))
	t.Cleanup(proxy.Close)
	viaProxy := NewClient(proxy.URL, proxy.Client())
	if err := sys.RegisterClient("mia"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddPassword("mia", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}

	var rows strings.Builder
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&rows, "%d,%d,%d\n", i, 30+i%40, 1000*(i%17))
	}
	data := []byte(rows.String())
	opts := UploadOptions{NoParity: true, MisleadLines: [][]byte{
		[]byte("77,41,93000"), {}, []byte("12,19,400\n13,20,410"),
	}}

	fronts := map[string]func(name string) API{
		"client": func(name string) API {
			loc, err := sys.Locate("mia", name)
			if err != nil {
				t.Fatal(err)
			}
			return sys.Shard(loc.Shard)
		},
		"system": func(string) API { return sys },
		"proxy":  func(string) API { return viaProxy },
	}
	for front, at := range fronts {
		for _, entry := range []string{"Upload", "UploadFrom"} {
			name := front + "-" + entry + ".csv"
			api := at(name)
			before := storedBytes(t, dists)
			var err error
			if entry == "Upload" {
				_, err = api.Upload("mia", "pw", name, data, privacy.Low, opts)
			} else {
				_, err = api.UploadFrom("mia", "pw", name, bytes.NewReader(data), privacy.Low, opts)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if stored := storedBytes(t, dists) - before; stored <= int64(len(data)) {
				t.Fatalf("%s: providers hold %d bytes for %d user bytes; decoys were dropped", name, stored, len(data))
			}
			got, err := api.GetFile("mia", "pw", name)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: read back %d bytes (err %v), want the original %d", name, len(got), err, len(data))
			}
		}
	}
}

func FuzzDecoyFrame(f *testing.F) {
	f.Add(encodeDecoyFrame([][]byte{[]byte("a,b\nc"), {}, []byte("row")}))
	f.Add([]byte{})
	f.Add([]byte{0x80})         // truncated length
	f.Add([]byte{0x05, 'a'})    // record overruns the block
	f.Add([]byte{0x80, 0x00})   // non-minimal length
	f.Add([]byte{0x01, 'a', 9}) // trailing partial record
	f.Fuzz(func(t *testing.T, block []byte) {
		// Any input split into records round-trips exactly.
		recs := bytes.Split(block, []byte{0})
		got, err := decodeDecoyFrame(encodeDecoyFrame(recs))
		if err != nil || len(got) != len(recs) {
			t.Fatalf("round trip of %d records: %d back, err %v", len(recs), len(got), err)
		}
		for i := range recs {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("record %d: %q, want %q", i, got[i], recs[i])
			}
		}
		// Arbitrary bytes either fail as ErrConfig or are exactly the
		// encoding of what they decode to: nothing is silently skipped.
		lines, err := decodeDecoyFrame(block)
		if err != nil {
			if !errors.Is(err, core.ErrConfig) {
				t.Fatalf("decode error %v is not ErrConfig", err)
			}
			return
		}
		if again := encodeDecoyFrame(lines); !bytes.Equal(again, block) {
			t.Fatalf("accepted block %x re-encodes as %x", block, again)
		}
	})
}

// rawUpload sends POST /v1/upload with a hand-built decoy header and
// body, returning the status.
func rawUpload(t *testing.T, base, name, misleadBytes string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/upload?pl=1&client=bob&filename="+name, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(headerPassword, "cHc=") // "pw"
	req.Header.Set(headerMisleadBytes, misleadBytes)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestDecoyBlockDecodedStrictly sends malformed decoy blocks straight to
// the server: each must be refused before anything is stored.
func TestDecoyBlockDecodedStrictly(t *testing.T) {
	lowerBlobBody(t, 1024)
	client, mems := distributorFixture(t, 5)
	if err := client.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := client.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	file := []byte("1,2,3\n4,5,6\n")
	cases := []struct {
		name, header string
		block        []byte
		want         int
	}{
		{"truncated-length", "1", []byte{0x80}, http.StatusBadRequest},
		{"overrun", "2", []byte{0x05, 'a'}, http.StatusBadRequest},
		{"trailing-bytes", "3", []byte{0x01, 'a', 0x04}, http.StatusBadRequest},
		{"short-body", "1000", nil, http.StatusBadRequest},
		{"not-a-number", "x", nil, http.StatusBadRequest},
		{"negative", "-1", nil, http.StatusBadRequest},
		{"over-cap", "1025", bytes.Repeat([]byte{0}, 1025), http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		body := append(append([]byte(nil), c.block...), file...)
		if got := rawUpload(t, client.base, c.name, c.header, body); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
		if _, err := client.ChunkCount("bob", "pw", c.name); !errors.Is(err, core.ErrNoSuchFile) {
			t.Errorf("%s: refused upload left a file behind (%v)", c.name, err)
		}
	}
	for _, m := range mems {
		if n := m.Usage().BytesStored; n != 0 {
			t.Fatalf("refused uploads stored %d bytes on %s", n, m.Info().Name)
		}
	}
	// A well-formed block at exactly the cap is accepted.
	block := encodeDecoyFrame([][]byte{bytes.Repeat([]byte("d"), 1022)})
	if len(block) != 1024 {
		t.Fatalf("block is %d bytes", len(block))
	}
	if got := rawUpload(t, client.base, "ok", fmt.Sprint(len(block)), append(block, file...)); got != http.StatusOK {
		t.Fatalf("well-formed block: status %d", got)
	}
}

// TestRequestBodiesAreCapped pins the buffered-body caps: an oversize
// update_chunk body or decoy block is refused with 413 at the
// distributor and through the proxy, and the client reports it as
// ErrOversizeRequest; an oversize JSON control body is refused by both.
func TestRequestBodiesAreCapped(t *testing.T) {
	lowerBlobBody(t, 2048)
	sys, _ := shardFixture(t, 2, 4)
	proxy := httptest.NewServer(NewShardProxy(sys))
	t.Cleanup(proxy.Close)
	if err := sys.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	loc, err := sys.Locate("bob", "f.bin")
	if err != nil {
		t.Fatal(err)
	}
	direct := sys.Shard(loc.Shard)
	if _, err := direct.Upload("bob", "pw", "f.bin", make([]byte, 100), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 4096)
	decoys := UploadOptions{MisleadLines: [][]byte{big}}
	for name, api := range map[string]API{"distributor": direct, "proxy": NewClient(proxy.URL, proxy.Client())} {
		if err := api.UpdateChunk("bob", "pw", "f.bin", 0, big); !errors.Is(err, ErrOversizeRequest) {
			t.Errorf("%s: oversize update_chunk = %v, want ErrOversizeRequest", name, err)
		}
		if _, err := api.Upload("bob", "pw", "g.bin", []byte("x"), privacy.High, decoys); !errors.Is(err, ErrOversizeRequest) {
			t.Errorf("%s: oversize decoy block = %v, want ErrOversizeRequest", name, err)
		}
		if err := api.UpdateChunk("bob", "pw", "f.bin", 0, big[:2048]); err != nil {
			t.Errorf("%s: update_chunk at the cap: %v", name, err)
		}
	}
	name := `{"name":"` + strings.Repeat("n", maxControlBody) + `"}`
	for _, base := range []string{sys.URLs()[0], proxy.URL} {
		resp, err := http.Post(base+"/v1/clients", "application/json", strings.NewReader(name))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversize control body answered %d, want 413", base, resp.StatusCode)
		}
	}
}

// TestShardProxyTruncatedUpstreamIsAnError: a shard that dies mid-body
// on get_file must surface at the client as an error — through the
// proxy's forwarded Content-Length or chunked framing alike — never as a
// short success.
func TestShardProxyTruncatedUpstreamIsAnError(t *testing.T) {
	for _, chunked := range []bool{false, true} {
		shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if !chunked {
				w.Header().Set("Content-Length", "4096")
			}
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(bytes.Repeat([]byte("x"), 1024))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}))
		sys, err := NewSystem([]string{shard.URL}, nil)
		if err != nil {
			t.Fatal(err)
		}
		proxy := httptest.NewServer(NewShardProxy(sys))
		client := quietClient(t, proxy)
		got, err := client.GetFile("c", "pw", "f")
		if err == nil {
			t.Errorf("chunked=%v: truncated upstream returned %d bytes as a success", chunked, len(got))
		}
		proxy.Close()
		shard.Close()
	}
}

// TestShardProxyRetriesReadsNotMutations: a GET whose upstream round
// trip fails at the transport level is retried by the forwarder until
// it succeeds, while a mutation whose upstream connection dies after
// the shard received it is never replayed.
func TestShardProxyRetriesReadsNotMutations(t *testing.T) {
	want := []byte("the whole file")
	shard := &countingHandler{serve: func(_ int, w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			_, _ = w.Write(want)
			return
		}
		panic(http.ErrAbortHandler) // applied, but the answer is lost
	}}
	srv := httptest.NewServer(shard)
	t.Cleanup(srv.Close)
	flaky := newFlakyTransport(srv.Client().Transport)
	sys, err := NewSystem([]string{srv.URL}, &http.Client{Transport: flaky})
	if err != nil {
		t.Fatal(err)
	}
	p := NewShardProxy(sys)
	var slept []time.Duration
	var mu sync.Mutex
	p.retry.sleep = func(d time.Duration) { mu.Lock(); slept = append(slept, d); mu.Unlock() }
	proxy := httptest.NewServer(p)
	t.Cleanup(proxy.Close)
	client := quietClient(t, proxy)

	flaky.failNext("/v1/get_file", netRetries-1)
	got, err := client.GetFile("c", "pw", "f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("GetFile through a flaky upstream = %q, %v", got, err)
	}
	if n := flaky.attempts("/v1/get_file"); n != netRetries {
		t.Fatalf("upstream GET attempts = %d, want %d", n, netRetries)
	}
	if len(slept) != netRetries-1 {
		t.Fatalf("forwarder backoffs = %d, want %d", len(slept), netRetries-1)
	}

	if err := client.UpdateChunk("c", "pw", "f", 0, []byte("new")); err == nil {
		t.Fatal("update over a dying upstream reported success")
	}
	if n := shard.attempts("/v1/update_chunk"); n != 1 {
		t.Fatalf("mutation reached the shard %d times, want exactly 1", n)
	}
	flaky.failNext("/v1/remove_file", 1)
	if err := client.RemoveFile("c", "pw", "f"); err == nil {
		t.Fatal("remove over a dead upstream reported success")
	}
	if n := flaky.attempts("/v1/remove_file"); n != 1 {
		t.Fatalf("mutation sent upstream %d times, want exactly 1", n)
	}
}
