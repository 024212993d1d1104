package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// shardFixture serves n independent distributors — each with its own
// provider fleet — and returns a System routing across them.
func shardFixture(t *testing.T, shards, provsPerShard int) (*System, []*core.Distributor) {
	t.Helper()
	urls := make([]string, shards)
	dists := make([]*core.Distributor, shards)
	for s := 0; s < shards; s++ {
		fleet, err := provider.NewFleet()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < provsPerShard; i++ {
			mem, err := provider.New(provider.Info{
				Name: fmt.Sprintf("s%dp%d", s, i), PL: privacy.High, CL: 1,
			}, provider.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := fleet.Add(mem); err != nil {
				t.Fatal(err)
			}
		}
		dist, err := core.New(core.Config{Fleet: fleet, Secret: []byte{byte(s + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		dists[s] = dist
		srv := httptest.NewServer(NewDistributorServer(dist))
		t.Cleanup(srv.Close)
		urls[s] = srv.URL
	}
	sys, err := NewSystem(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, dists
}

// TestSystemRoutesFilesToOwningShard pins the routing contract: every
// file lands on exactly the shard Locate names, account state exists on
// every shard, and all files remain readable through the System.
func TestSystemRoutesFilesToOwningShard(t *testing.T) {
	sys, dists := shardFixture(t, 3, 4)
	if err := sys.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddPassword("alice", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	files := map[string][]byte{}
	owners := map[string]int{}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("doc-%03d.txt", i)
		data := make([]byte, 600+rng.Intn(900))
		rng.Read(data)
		files[name] = data
		if _, err := sys.Upload("alice", "pw", name, data, privacy.High, UploadOptions{}); err != nil {
			t.Fatalf("upload %s: %v", name, err)
		}
		loc, err := sys.Locate("alice", name)
		if err != nil {
			t.Fatal(err)
		}
		owners[name] = loc.Shard
	}
	// The namespace must actually spread: with 24 files on 3 shards, an
	// empty shard would mean the router is degenerate.
	counts := make([]int, 3)
	for _, s := range owners {
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d owns no files; histogram %v", s, counts)
		}
	}

	for name, want := range files {
		got, err := sys.GetFile("alice", "pw", name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file %s corrupted through system", name)
		}
		// Only the owning shard holds the file's metadata.
		for s := range dists {
			_, err := sys.Shard(s).ChunkCount("alice", "pw", name)
			if s == owners[name] && err != nil {
				t.Fatalf("owner shard %d missing %s: %v", s, name, err)
			}
			if s != owners[name] && err == nil {
				t.Fatalf("shard %d unexpectedly holds %s (owner %d)", s, name, owners[name])
			}
		}
	}

	// Aggregate stats must account for every file exactly once.
	st, err := sys.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != len(files) {
		t.Fatalf("aggregate Files = %d, want %d", st.Files, len(files))
	}
	if st.Clients != 1 {
		t.Fatalf("aggregate Clients = %d, want 1", st.Clients)
	}
	if len(st.PerProvider) != 3*4 {
		t.Fatalf("PerProvider length %d, want 12", len(st.PerProvider))
	}
}

// TestSystemLocateIsStable pins that routing depends only on the URL
// set, not its order — restarts with a reshuffled config must not
// repartition the namespace.
func TestSystemLocateIsStable(t *testing.T) {
	urls := []string{"http://a:1", "http://b:2", "http://c:3"}
	sysA, err := NewSystem(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []string{"http://c:3", "http://a:1", "http://b:2"}
	sysB, err := NewSystem(shuffled, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("f%d", i)
		a, err := sysA.Locate("u", name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sysB.Locate("u", name)
		if err != nil {
			t.Fatal(err)
		}
		if a.ShardURL != b.ShardURL {
			t.Fatalf("file %s: owner %s under one order, %s under another", name, a.ShardURL, b.ShardURL)
		}
	}
	if _, err := NewSystem([]string{"http://a:1", "http://a:1"}, nil); err == nil {
		t.Fatal("duplicate shard URLs accepted")
	}
}

// TestShardProxyServesSingleDistributorProtocol drives the proxy with a
// plain Client: the whole single-distributor wire surface — every
// per-file route, upload options, stats, scrub, health — must work
// unchanged against a sharded backend.
func TestShardProxyServesSingleDistributorProtocol(t *testing.T) {
	sys, _ := shardFixture(t, 3, 4)
	proxy := httptest.NewServer(NewShardProxy(sys))
	t.Cleanup(proxy.Close)
	cl := NewClient(proxy.URL, proxy.Client())

	if err := cl.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	files := map[string][]byte{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("px-%02d.bin", i)
		data := make([]byte, 900+rng.Intn(600))
		rng.Read(data)
		files[name] = data
		if _, err := cl.Upload("bob", "pw", name, data, privacy.High, UploadOptions{}); err != nil {
			t.Fatalf("upload via proxy: %v", err)
		}
	}
	for name, want := range files {
		got, err := cl.GetFile("bob", "pw", name)
		if err != nil {
			t.Fatalf("get via proxy: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file %s corrupted through proxy", name)
		}
	}

	// Streaming endpoints forward to the owning shard.
	big := make([]byte, 150_000)
	rng.Read(big)
	if _, err := cl.UploadFrom("bob", "pw", "stream.bin", bytes.NewReader(big), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatalf("stream upload via proxy: %v", err)
	}
	var out bytes.Buffer
	n, err := cl.GetFileTo(&out, "bob", "pw", "stream.bin")
	if err != nil {
		t.Fatalf("stream download via proxy: %v", err)
	}
	if n != int64(len(big)) || !bytes.Equal(out.Bytes(), big) {
		t.Fatalf("streamed file corrupted through proxy (%d of %d bytes)", n, len(big))
	}

	// Chunk-level ops route to the same owner the upload picked.
	nChunks, err := cl.ChunkCount("bob", "pw", "px-00.bin")
	if err != nil || nChunks < 1 {
		t.Fatalf("chunk_count via proxy: n=%d err=%v", nChunks, err)
	}
	chunk, err := cl.GetChunk("bob", "pw", "px-00.bin", 0)
	if err != nil || len(chunk) == 0 {
		t.Fatalf("get_chunk via proxy: %v", err)
	}
	span, err := cl.GetRange("bob", "pw", "px-01.bin", 100, 300)
	if err != nil || !bytes.Equal(span, files["px-01.bin"][100:400]) {
		t.Fatalf("get_range via proxy: %d bytes, %v", len(span), err)
	}
	patched := bytes.Repeat([]byte("u"), len(chunk))
	if err := cl.UpdateChunk("bob", "pw", "px-00.bin", 0, patched); err != nil {
		t.Fatalf("update_chunk via proxy: %v", err)
	}
	if got, err := cl.GetChunk("bob", "pw", "px-00.bin", 0); err != nil || !bytes.Equal(got, patched) {
		t.Fatalf("chunk after update via proxy: %v", err)
	}
	if snap, err := cl.GetSnapshot("bob", "pw", "px-00.bin", 0); err != nil || !bytes.Equal(snap, chunk) {
		t.Fatalf("get_snapshot via proxy: %v", err)
	}
	if err := cl.RemoveChunk("bob", "pw", "px-02.bin", 0); err != nil {
		t.Fatalf("remove_chunk via proxy: %v", err)
	}
	if _, err := cl.GetChunk("bob", "pw", "px-02.bin", 0); !errors.Is(err, core.ErrNoSuchChunk) {
		t.Fatalf("removed chunk via proxy: %v", err)
	}

	// Upload options ride the forwarded headers and body.
	key := bytes.Repeat([]byte{7}, 32)
	if _, err := cl.Upload("bob", "pw", "enc.bin", big[:5000], privacy.High, UploadOptions{EncryptKey: key}); err != nil {
		t.Fatalf("encrypted upload via proxy: %v", err)
	}
	if got, err := cl.GetFile("bob", "pw", "enc.bin"); err != nil || !bytes.Equal(got, big[:5000]) {
		t.Fatalf("encrypted file via proxy: %v", err)
	}
	text := []byte("a,1\nb,2\nc,3\n")
	if _, err := cl.Upload("bob", "pw", "decoy.csv", text, privacy.High, UploadOptions{MisleadLines: [][]byte{[]byte("z,9")}}); err != nil {
		t.Fatalf("decoy upload via proxy: %v", err)
	}
	if got, err := cl.GetFile("bob", "pw", "decoy.csv"); err != nil || !bytes.Equal(got, text) {
		t.Fatalf("decoy file via proxy: %q, %v", got, err)
	}

	if err := cl.RemoveFile("bob", "pw", "px-11.bin"); err != nil {
		t.Fatalf("remove via proxy: %v", err)
	}
	if _, err := cl.GetFile("bob", "pw", "px-11.bin"); err == nil {
		t.Fatal("removed file still readable via proxy")
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 14 { // 12 small + stream + enc + decoy - removed
		t.Fatalf("stats via proxy: Files = %d, want 14", st.Files)
	}
	if _, err := cl.Scrub(); err != nil {
		t.Fatalf("scrub via proxy: %v", err)
	}
	if err := cl.Health(); err != nil {
		t.Fatalf("health via proxy: %v", err)
	}

	// Errors keep their identity through two hops: client → proxy → shard.
	if _, err := cl.GetFile("bob", "wrong", "px-00.bin"); err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("want access-denied through proxy, got %v", err)
	}

	// /v1/locate agrees with client-side routing.
	resp, err := proxy.Client().Get(proxy.URL + "/v1/locate?client=bob&filename=px-00.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("locate status %d", resp.StatusCode)
	}
	var loc Location
	if err := json.NewDecoder(resp.Body).Decode(&loc); err != nil {
		t.Fatal(err)
	}
	want, err := sys.Locate("bob", "px-00.bin")
	if err != nil {
		t.Fatal(err)
	}
	if loc != want {
		t.Fatalf("proxy locate %+v != system locate %+v", loc, want)
	}
}

// TestHealthReportsReplicationLag wires a replicated cluster's lag feed
// into the health endpoint and checks that a down, lagging secondary
// flips status to degraded and shows its record deficit on the wire.
func TestHealthReportsReplicationLag(t *testing.T) {
	fleet, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("h%d", i), PL: privacy.High, CL: 1,
		}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.Add(mem); err != nil {
			t.Fatal(err)
		}
	}
	var dists []*core.Distributor
	for i := 0; i < 2; i++ {
		d, err := core.New(core.Config{Fleet: fleet, Secret: []byte{byte(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		dists = append(dists, d)
	}
	cluster, err := core.NewCluster(dists...)
	if err != nil {
		t.Fatal(err)
	}

	ds := NewDistributorServer(dists[0])
	ds.SetLagSource(cluster.Lag)
	srv := httptest.NewServer(ds)
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL, srv.Client())

	if err := cluster.RegisterClient("eve"); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.HealthReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ok" {
		t.Fatalf("healthy cluster reported %q", rep.Status)
	}
	if len(rep.Replication) != 2 {
		t.Fatalf("want 2 replication rows, got %d", len(rep.Replication))
	}

	// Down the secondary and write: lag becomes visible and degrading.
	if err := cluster.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	if err := cluster.AddPassword("eve", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	rep, err = cl.HealthReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "degraded" {
		t.Fatalf("lagging cluster reported %q, want degraded", rep.Status)
	}
	var sec *core.ReplicaLag
	for i := range rep.Replication {
		if rep.Replication[i].Role == "secondary" {
			sec = &rep.Replication[i]
		}
	}
	if sec == nil {
		t.Fatal("no secondary row in health report")
	}
	if !sec.Down || sec.LagRecords == 0 {
		t.Fatalf("secondary row %+v: want down with positive lag", *sec)
	}

	// Heal: SetDown(false) catches the secondary up; health recovers.
	if err := cluster.SetDown(1, false); err != nil {
		t.Fatal(err)
	}
	rep, err = cl.HealthReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ok" {
		t.Fatalf("healed cluster reported %q", rep.Status)
	}
	for _, r := range rep.Replication {
		if r.LagRecords != 0 || r.Down {
			t.Fatalf("healed row still lagging: %+v", r)
		}
	}
}
