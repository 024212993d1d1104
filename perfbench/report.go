package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named figure as printed.
type metric struct {
	name  string
	unit  string
	value float64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the nearest-rank q-quantile of ds, or 0 for no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func medianDuration(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailQuantile is the quantile put_tail_ms and get_tail_ms report. It
// has at least ten samples beyond it on every workload. On small-churn
// p99 would too, but over ten seeds on a shared 2-vCPU VM its spread
// reached half its median: host interference dominates the p99 of
// 0.1 ms calls.
const tailQuantile = 0.90

// endToEnd derives the user-visible metrics of untraced rounds. On a
// stream workload put and get are the streamed sput and sget.
func endToEnd(w *workload, setups []time.Duration, rs []passResult) []metric {
	var lat [numCalls][]time.Duration
	var elapsed, cpu time.Duration
	var heaps, stored []float64
	for _, r := range rs {
		for i := range lat {
			lat[i] = append(lat[i], r.lat[i]...)
		}
		elapsed += r.elapsed
		cpu += r.cpu
		heaps = append(heaps, float64(r.heapLive)/1e6)
		stored = append(stored, float64(r.stored)/float64(w.liveBytes()))
	}
	calls := 0
	for _, l := range lat {
		calls += len(l)
	}
	return []metric{
		{"setup_s", "s", medianDuration(setups).Seconds()},
		{"ops_per_s", "1/s", float64(calls) / elapsed.Seconds()},
		{"put_p50_ms", "ms", ms(quantile(lat[callPut], 0.5))},
		{"put_tail_ms", "ms", ms(quantile(lat[callPut], tailQuantile))},
		{"get_p50_ms", "ms", ms(quantile(lat[callGet], 0.5))},
		{"get_tail_ms", "ms", ms(quantile(lat[callGet], tailQuantile))},
		{"range_p50_ms", "ms", ms(quantile(lat[callRange], 0.5))},
		{"remove_p50_ms", "ms", ms(quantile(lat[callRemove], 0.5))},
		{"cpu_ms_per_op", "ms", ms(cpu) / float64(calls)},
		{"heap_live_MB", "MB", median(heaps)},
		{"stored_bytes_per_user_byte", "ratio", median(stored)},
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// Data routes of the distributor, as routeName names them.
var dataRoutes = []string{"upload", "get_file", "get_range", "remove_file", "update_chunk", "stream_upload", "stream_file"}

// perLayer derives the per-layer metrics from an untraced serial pass
// (a), a traced serial pass over the same ops (b) and the kernel timings.
func perLayer(w *workload, a, b passResult, k kernelRates) []metric {
	var ops, others []span
	for _, s := range b.spans {
		if s.layer == layerClient {
			ops = append(ops, s)
		} else {
			others = append(others, s)
		}
	}
	groups := attribute(ops, others)
	front := layerDist
	if w.proxy {
		front = layerProxy
	}

	var clientSelf, proxySelf, coreSelf, rtCovered, rtSum, probeNs, storeNs int64
	var probesInWrites, writes, putsInWrites, reads, getsInReads, removes, deletesInRemoves int
	var putBytes, getBytesInReads int64
	handlerNs := map[string]int64{}
	handlerN := map[string]int{}
	shardCalls := make([]int, w.shards)
	for i, c := range ops {
		isWrite := c.name == "put" || c.name == "update"
		isRead := c.name == "get" || c.name == "range"
		switch {
		case isWrite:
			writes++
		case isRead:
			reads++
		case c.name == "remove":
			removes++
		}
		var fronts, dists, rts, rtData []interval
		for _, s := range groups[i] {
			iv := interval{s.start, s.end}
			if s.layer == front {
				fronts = append(fronts, iv)
			}
			switch s.layer {
			case layerDist:
				dists = append(dists, iv)
			case layerRT:
				rts = append(rts, iv)
				switch s.name {
				case "probe":
					probeNs += s.dur()
					if isWrite {
						probesInWrites++
					}
				case "PUT":
					if isWrite {
						putsInWrites++
					}
					putBytes += s.bytes
				case "GET":
					if isRead {
						getsInReads++
						getBytesInReads += s.bytes
					}
				case "DELETE":
					if c.name == "remove" {
						deletesInRemoves++
					}
				}
				if s.name != "probe" {
					rtData = append(rtData, iv)
					rtSum += s.dur()
				}
			case layerStore:
				storeNs += s.dur()
			}
		}
		parent := interval{c.start, c.end}
		clientSelf += selfTime(parent, fronts)
		rtCovered += coveredWithin(parent, rtData)
		for _, s := range groups[i] {
			iv := interval{s.start, s.end}
			switch s.layer {
			case layerProxy:
				proxySelf += selfTime(iv, dists)
			case layerDist:
				coreSelf += selfTime(iv, rts)
				handlerNs[s.name] += s.dur()
				handlerN[s.name]++
				shardCalls[s.unit]++
			}
		}
	}

	n := float64(len(ops))
	perOp := func(ns int64) float64 { return ratio(float64(ns)/1e6, n) }
	delta := b.after
	delta.Cache.Hits -= b.before.Cache.Hits
	delta.Cache.Misses -= b.before.Cache.Misses
	delta.Cache.Evictions -= b.before.Cache.Evictions
	delta.Reconstructions -= b.before.Reconstructions
	delta.HedgedReads -= b.before.HedgedReads
	delta.WAL.Records -= b.before.WAL.Records
	delta.WAL.Fsyncs -= b.before.WAL.Fsyncs
	delta.WAL.Checkpoints -= b.before.WAL.Checkpoints

	maxShard, shardTotal := 0, 0
	for _, c := range shardCalls {
		maxShard = max(maxShard, c)
		shardTotal += c
	}
	aCalls := float64(a.calls())
	aBytes := float64(a.userWritten + a.userRead)

	out := []metric{
		{"health.probes_per_write", "count", ratio(float64(probesInWrites), float64(writes))},
		{"health.probe_ms_per_op", "ms", perOp(probeNs)},
		{"transport.client_self_ms_per_op", "ms", perOp(clientSelf)},
		{"transport.proxy_self_ms_per_op", "ms", perOp(proxySelf)},
		{"transport.wire_bytes_per_user_byte", "ratio", ratio(float64(b.wire), float64(b.userWritten+b.userRead))},
		{"transport.provider_rt_ms_per_op", "ms", perOp(rtCovered)},
		{"transport.provider_fanout", "ratio", ratio(float64(rtSum), float64(rtCovered))},
	}
	for _, r := range dataRoutes {
		out = append(out, metric{"core.handler_ms_per_op." + r, "ms", ratio(float64(handlerNs[r])/1e6, float64(handlerN[r]))})
	}
	out = append(out,
		metric{"core.self_ms_per_op", "ms", perOp(coreSelf)},
		metric{"core.cache_hit_ratio", "ratio", ratio(float64(delta.Cache.Hits), float64(delta.Cache.Hits+delta.Cache.Misses))},
		metric{"core.cache_evictions_per_op", "count", ratio(float64(delta.Cache.Evictions), n)},
		metric{"core.reconstructions_per_get", "count", ratio(float64(delta.Reconstructions), float64(reads))},
		metric{"core.hedged_reads_per_get", "count", ratio(float64(delta.HedgedReads), float64(reads))},
		metric{"provider.puts_per_write", "count", ratio(float64(putsInWrites), float64(writes))},
		metric{"provider.gets_per_read", "count", ratio(float64(getsInReads), float64(reads))},
		metric{"provider.deletes_per_remove", "count", ratio(float64(deletesInRemoves), float64(removes))},
		metric{"provider.write_amplification", "ratio", ratio(float64(putBytes), float64(b.userWritten))},
		metric{"provider.read_amplification", "ratio", ratio(float64(getBytesInReads), float64(b.userRead))},
		metric{"provider.store_ms_per_op", "ms", perOp(storeNs)},
		metric{"wal.records_per_op", "count", ratio(float64(delta.WAL.Records), n)},
		metric{"wal.records_per_fsync", "count", ratio(float64(delta.WAL.Records), float64(delta.WAL.Fsyncs))},
		metric{"wal.checkpoints_per_kop", "count", ratio(float64(delta.WAL.Checkpoints)*1000, n)},
		metric{"wal.snapshot_bytes_per_live_chunk", "B", ratio(float64(b.snapBytes), float64(b.liveChunks))},
		metric{"dht.max_shard_share", "ratio", ratio(float64(maxShard), float64(shardTotal)) * float64(w.shards)},
		metric{"chunker.split_MBps", "MB/s", k.split},
		metric{"raid.parity_MBps", "MB/s", k.parity},
		metric{"cryptofrag.encrypt_MBps", "MB/s", k.encrypt},
		metric{"mislead.inject_MBps", "MB/s", k.inject},
		metric{"mislead.strip_MBps", "MB/s", k.strip},
		metric{"runtime.alloc_B_per_user_byte", "ratio", ratio(float64(a.allocBytes), aBytes)},
		metric{"runtime.mallocs_per_op", "count", ratio(float64(a.mallocs), aCalls)},
		metric{"runtime.gc_cpu_share", "ratio", ratio(a.gcCPU, a.cpu.Seconds())},
		metric{"trace.overhead", "ratio", ratio(aCalls/a.elapsed.Seconds(), n/b.elapsed.Seconds())},
	)
	return out
}
