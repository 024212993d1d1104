package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/bufpool"
	"repro/internal/chunker"
	"repro/internal/cryptofrag"
	"repro/internal/mislead"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// kernelRates are the byte kernels' throughputs in MB/s (10^6 bytes),
// timed in-process on the shapes the workload feeds them.
type kernelRates struct {
	split, parity, encrypt, inject, strip float64
}

// Decoy settings the mislead kernels are timed at on every workload.
const (
	misleadChunk    = 8 << 10
	misleadFraction = 0.2
)

// sinkBytes keeps kernel results alive so the calls are not elided.
var sinkBytes int

func timeKernels(w *workload) (kernelRates, error) {
	chunkSize, err := privacy.DefaultChunkSizes().Size(w.pl)
	if err != nil {
		return kernelRates{}, err
	}
	chunkLen := min(chunkSize, w.size)
	nChunks := (w.size + chunkSize - 1) / chunkSize
	// The stored payload of one chunk: decoys inflate it, encryption
	// adds an IV and a MAC.
	payloadLen := chunkLen + int(float64(chunkLen)*w.opts.MisleadFraction)
	if len(w.opts.EncryptKey) > 0 {
		payloadLen += 16 + 32
	}
	width := min(4, w.provs-raid.RAID5.ParityShards(), nChunks)

	obj := make([]byte, w.size)
	fillContent(obj, 1, 0)
	shards := make([][]byte, width)
	for i := range shards {
		shards[i] = make([]byte, payloadLen)
		fillContent(shards[i], uint64(i)+2, 0)
	}
	parity := [][]byte{make([]byte, payloadLen)}
	key := []byte("perfbench-kernel-key-32-bytes-ok")
	plain := obj[:chunkLen]
	decoySrc := make([]byte, misleadChunk)
	fillContent(decoySrc, 99, 0)
	rng := rand.New(rand.NewSource(1))
	inflated, inj, err := mislead.Inject(decoySrc, misleadFraction, rng)
	if err != nil {
		return kernelRates{}, err
	}

	var kerr error
	keep := func(err error) {
		if err != nil && kerr == nil {
			kerr = err
		}
	}
	r := kernelRates{
		split: rate(w.size, func() {
			cs, err := chunker.SplitSize(obj, chunkSize, w.pl)
			keep(err)
			for _, c := range cs {
				bufpool.Put(c.Data)
			}
			sinkBytes += len(cs)
		}),
		parity: rate(width*payloadLen, func() { keep(raid.ParityInto(raid.RAID5, shards, parity)) }),
		encrypt: rate(chunkLen, func() {
			out, err := cryptofrag.Encrypt(key, plain, 7)
			keep(err)
			sinkBytes += len(out)
		}),
		inject: rate(misleadChunk, func() {
			out, _, err := mislead.Inject(decoySrc, misleadFraction, rng)
			keep(err)
			sinkBytes += len(out)
		}),
		strip: rate(misleadChunk, func() {
			out, err := mislead.Strip(inflated, inj)
			keep(err)
			sinkBytes += len(out)
		}),
	}
	return r, kerr
}

// rate times fn, which processes n bytes per call, over five rounds of
// at least 40 ms each and returns the median round's MB/s.
func rate(n int, fn func()) float64 {
	const rounds, minRound = 5, 40 * time.Millisecond
	rates := make([]float64, rounds)
	for i := range rates {
		calls := 0
		start := time.Now()
		for time.Since(start) < minRound {
			fn()
			calls++
		}
		rates[i] = float64(calls*n) / time.Since(start).Seconds() / 1e6
	}
	sort.Float64s(rates)
	return rates[rounds/2]
}
