package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSample is a snapshot of the process counters a phase is charged
// with: CPU time of every thread (clients and servers share the process)
// and the Go runtime's allocation and GC totals.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint64
	pauseNs uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:     cpu,
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   uint64(ms.NumGC),
		pauseNs: ms.PauseTotalNs,
	}
}

// add accumulates the difference end - start into p.
func (p *procSample) add(start, end procSample) {
	p.cpu += end.cpu - start.cpu
	p.mallocs += end.mallocs - start.mallocs
	p.bytes += end.bytes - start.bytes
	p.numGC += end.numGC - start.numGC
	p.pauseNs += end.pauseNs - start.pauseNs
}

// onOneP runs a latency slice with GOMAXPROCS 1. With one query in
// flight, the handoffs between the caller, the coalescer's flusher, the
// connection readers and the handlers then stay on one thread, so the
// slice times the program's path rather than the host's cross-CPU
// wake-ups: on a shared 2-vCPU VM those moved live-tcp's p50 by a third
// and its p90 by half from run to run, while on one P both repeated
// within 3%. The throughput slices run on every CPU.
func onOneP[T any](f func() T) T {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	return f()
}

// heapMiB is HeapInuse after a forced collection: the state the run
// retains, not its garbage.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// rates collects a throughput phase's per-slice figures. The reported
// figure is their median, which contention from outside the process
// during one slice does not move.
type rates struct {
	wall  time.Duration
	proc  procSample
	qps   []float64
	cpuUs []float64 // CPU time per query
}

// time runs one slice; f returns the queries it completed.
func (r *rates) time(f func() int64) {
	p0, t0 := sampleProc(), time.Now()
	n := f()
	wall := time.Since(t0)
	p1 := sampleProc()
	r.wall += wall
	r.proc.add(p0, p1)
	if n > 0 {
		r.qps = append(r.qps, float64(n)/wall.Seconds())
		r.cpuUs = append(r.cpuUs, float64(p1.cpu-p0.cpu)/float64(time.Microsecond)/float64(n))
	}
}

func (r *rates) medianQPS() float64 { return median(r.qps) }
func (r *rates) medianCPU() float64 { return median(r.cpuUs) }

// setRuntime reports the Go runtime's allocation and GC work per query
// over a plain (untraced) throughput phase of n queries.
func setRuntime(res *result, r rates, n int64) {
	res.set("go.allocs_per_query", per(float64(r.proc.mallocs), n))
	res.set("go.alloc_bytes_per_query", per(float64(r.proc.bytes), n))
	res.set("go.gc_cycles_per_kquery", per(1000*float64(r.proc.numGC), n))
	res.set("go.gc_pause_us_per_query", per(float64(r.proc.pauseNs)/1e3, n))
}
