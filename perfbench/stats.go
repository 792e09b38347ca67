package main

import (
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantileDur returns the q-quantile (nearest rank) of ds; ds is not
// modified.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	if len(s)%2 == 0 && q == 0.5 {
		return (s[i] + s[i+1]) / 2
	}
	return s[i]
}

func medianDur(ds []time.Duration) time.Duration { return quantileDur(ds, 0.5) }

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSnap is a runtime counter snapshot taken around a timed phase.
type memSnap struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	pauseTotal          uint64
}

func snapMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.Mallocs, m.TotalAlloc, m.NumGC, m.PauseTotalNs}
}

// gcLayers reports the runtime's GC work between two snapshots.
func gcLayers(layers map[string]metric, a, b memSnap) {
	put(layers, "runtime.gc_cycles", float64(b.numGC-a.numGC), "count")
	put(layers, "runtime.gc_pause_ms", float64(b.pauseTotal-a.pauseTotal)/1e6, "ms")
}

func put(layers map[string]metric, name string, v float64, unit string) {
	layers[name] = metric{name, v, unit}
}

// settle collects garbage and returns freed memory to the OS before a
// set-up or timed phase, so that one phase's garbage is charged
// neither to the next phase's time nor to its resident set.
func settle() { debug.FreeOSMemory() }

// setupReps is how many times a run sets its workload up; setup_s is
// the median. The first set-up is the one the timed phase uses.
const setupReps = 5

// timeSetup builds the workload once and records the set-up time.
func timeSetup[T any](rep *report, build func() (T, error)) (T, error) {
	settle()
	t0 := time.Now()
	v, err := build()
	if err == nil {
		rep.setups = append(rep.setups, time.Since(t0))
	}
	return v, err
}

// repeatSetups times setupReps-1 more set-ups, each torn down at once.
// They run after the timed phase and after peak_rss_mb is read, so
// they add neither noise nor resident memory to the measured run. A
// traced run, which reports no setup_s, skips them.
func repeatSetups[T any](p params, rep *report, build func() (T, error), teardown func(T) error) error {
	if p.rec != nil {
		return nil
	}
	for i := 1; i < setupReps; i++ {
		v, err := timeSetup(rep, build)
		if err != nil {
			return err
		}
		if err := teardown(v); err != nil {
			return err
		}
	}
	return nil
}

// inputRand is the generator every benchmark input is drawn from. It
// is independent of the program's own PRNG (internal/xrand), so the
// program receives only the values, never the generator.
func inputRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Streams of inputRand, one per kind of input.
const (
	streamValues = iota + 1
	streamEngineSeed
	streamNames
	streamOrder
)
