package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// tally is what closed-loop clients saw over one or more phase slices.
type tally struct {
	attempted, failed, hops int64
	lat                     []time.Duration // per answered query, when timed
	wrong                   error           // first oracle violation
	failure                 error           // first failed query
	kept                    []wire.QueryResult
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.hops += o.hops
	t.lat = append(t.lat, o.lat...)
	if t.wrong == nil {
		t.wrong = o.wrong
	}
	if t.failure == nil {
		t.failure = o.failure
	}
	t.kept = append(t.kept, o.kept...)
}

func (t *tally) answered() int64 { return t.attempted - t.failed }

// drive runs inflight closed-loop clients for d: each sends its next
// query only once the previous one is answered, timing it from send to
// answer. Every answer is checked; keep answers are retained for the
// codec and admission replays.
func (h *hier) drive(ctx context.Context, qs []liveQuery, cursor *atomic.Uint64, inflight int, d time.Duration, timeEach bool, keep int) *tally {
	deadline := time.Now().Add(d)
	healthy := len(h.suppressed) == 0
	parts := make([]tally, inflight)
	var wg sync.WaitGroup
	wg.Add(inflight)
	for w := range parts {
		go func(t *tally) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q := &qs[(cursor.Add(1)-1)%uint64(len(qs))]
				qr, took, err := h.ask(ctx, q)
				t.attempted++
				if err == nil && !qr.Found {
					err = fmt.Errorf("not found after %d hops: %s", qr.Hops, qr.Reason)
				}
				if err != nil {
					t.failed++
					if t.failure == nil {
						t.failure = fmt.Errorf("query for %s from %s: %w", q.target, q.entry, err)
					}
					continue
				}
				if err := checkLive(*q, qr, h.suppressed, healthy); err != nil {
					if t.wrong == nil {
						t.wrong = err
					}
					continue
				}
				t.hops += int64(qr.Hops)
				if timeEach {
					t.lat = append(t.lat, took)
				}
				if len(t.kept) < keep {
					t.kept = append(t.kept, qr)
				}
			}
		}(&parts[w])
	}
	wg.Wait()
	var out tally
	for i := range parts {
		out.merge(&parts[i])
	}
	return &out
}

// liveCounters are the program's own counters a traced phase reads.
type liveCounters struct {
	modes                   [4]int64 // hierarchical, greedy, backward, nephew
	flushes, frames, fbytes int64
	dials                   int64
}

var hopModes = [4]wire.QueryMode{wire.ModeHierarchical, wire.ModeForward, wire.ModeBackward, wire.ModeNephew}

func (h *hier) counters() liveCounters {
	var c liveCounters
	for i, m := range hopModes {
		c.modes[i] = h.nodeReg.Counter("hours_queries_forwarded_total", obs.L("mode", string(m))).Value()
	}
	for _, reg := range []*obs.Registry{h.nodeReg, h.clientReg} {
		for _, side := range []string{"client", "server"} {
			l := obs.L("side", side)
			c.flushes += reg.Counter("hours_batch_flushes_total", l).Value()
			c.frames += reg.Counter("hours_batch_frames_total", l).Value()
			c.fbytes += reg.Counter("hours_batch_bytes_total", l).Value()
		}
		c.dials += reg.Counter("hours_pool_dials_total").Value()
	}
	return c
}

func (c liveCounters) sub(o liveCounters) liveCounters {
	for i := range c.modes {
		c.modes[i] -= o.modes[i]
	}
	c.flushes -= o.flushes
	c.frames -= o.frames
	c.fbytes -= o.fbytes
	c.dials -= o.dials
	return c
}

func (c *liveCounters) add(o liveCounters) {
	for i := range c.modes {
		c.modes[i] += o.modes[i]
	}
	c.flushes += o.flushes
	c.frames += o.frames
	c.fbytes += o.fbytes
	c.dials += o.dials
}

// maintRetries counts the retry layer's extra attempts of the calls a
// maintenance round makes (probes and CCW notifications; queries are
// never retried).
func (h *hier) maintRetries() int64 {
	var n int64
	for _, t := range []wire.Type{wire.TypeProbe, wire.TypeNotifyCCW} {
		n += h.nodeReg.Counter("hours_retry_attempts_total", obs.L("type", string(t))).Value()
	}
	return n
}

// encodedBytes is the codec's count of encoded frame bytes, both
// directions, both registries. The pooled transport bumps it after the
// write returns, so it is exact only once the stacks are closed.
func (h *hier) encodedBytes() int64 {
	var n int64
	for _, reg := range []*obs.Registry{h.nodeReg, h.clientReg} {
		for _, codec := range []string{"binary", "json"} {
			for _, side := range []string{"client", "server"} {
				n += reg.Counter("hours_codec_encode_bytes_total", obs.L("codec", codec), obs.L("side", side)).Value()
			}
		}
	}
	return n
}

// liveRun is a live workload's running hierarchies, measured in turn.
type liveRun struct {
	hs       []*hier
	qs       [][]liveQuery
	cursors  []atomic.Uint64
	maintain bool
	rounds   []time.Duration // wall time of the maintenance rounds run beside the slices
	closed   bool
}

// drive runs one phase slice on hierarchy i.
func (r *liveRun) drive(ctx context.Context, i, inflight int, d time.Duration, timeEach bool, keep int) *tally {
	i %= len(r.hs)
	return r.hs[i].drive(ctx, r.qs[i], &r.cursors[i], inflight, d, timeEach, keep)
}

// tput runs one throughput slice on hierarchy i and, when the workload
// maintains, one maintenance round beside it, so §4.3 suspicion updates
// and view republication (the writes) run beside the lock-free view
// reads. The slice waits for the round, so its CPU time holds all of it.
func (r *liveRun) tput(ctx context.Context, i, inflight int, d time.Duration) *tally {
	if !r.maintain {
		return r.drive(ctx, i, inflight, d, false, 0)
	}
	round := make(chan time.Duration, 1)
	go func() { round <- r.hs[i%len(r.hs)].maintainRound(ctx) }()
	t := r.drive(ctx, i, inflight, d, false, 0)
	r.rounds = append(r.rounds, <-round)
	return t
}

// maintainCPU runs one maintenance round alone on each hierarchy and
// returns the median process CPU time of a round.
func (r *liveRun) maintainCPU(ctx context.Context) time.Duration {
	var cpu []float64
	for _, h := range r.hs {
		p0 := sampleProc()
		h.maintainRound(ctx)
		cpu = append(cpu, float64(sampleProc().cpu-p0.cpu))
	}
	return time.Duration(median(cpu))
}

// close stops every hierarchy once; their registries stay readable.
func (r *liveRun) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, h := range r.hs {
		h.close()
	}
}

func (r *liveRun) encodedBytes() int64 {
	var n int64
	for _, h := range r.hs {
		n += h.encodedBytes()
	}
	return n
}

// throughput is a throughput phase's totals and per-slice rates.
type throughput struct {
	tally
	rates
}

func (t *throughput) run(f func() *tally) {
	t.rates.time(func() int64 {
		part := f()
		t.merge(part)
		return part.answered()
	})
}

func runLive(ctx context.Context, cfg liveConfig, o options) (*result, error) {
	res := newResult()
	var rec *recorder
	if o.traced {
		rec = &recorder{}
	}
	r := &liveRun{maintain: cfg.maintain}
	defer r.close()
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if len(r.hs) == cfg.instances {
			r.hs[0].close()
			r.hs = r.hs[1:]
		}
		runtime.GC()
		start := time.Now()
		h, err := buildHier(ctx, cfg, deploySeed, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.hs = append(r.hs, h)
		if err := h.attack(ctx, xrand.Derive(deploySeed, uint64(i)).Uint64()); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.set("setup_s", median(setups))
	res.notef("set-up times (s): %.3f", setups)
	for i, h := range r.hs {
		if len(h.victims) > 0 {
			res.notef("hierarchy %d: suppressed %s", i, strings.Join(h.victims, " "))
		}
	}
	r.cursors = make([]atomic.Uint64, len(r.hs))
	for i, h := range r.hs {
		qs, err := h.queries(xrand.Derive(o.seed, 0x9e7+uint64(i)).Uint64())
		if err != nil {
			return nil, err
		}
		r.qs = append(r.qs, qs)
	}

	var warm tally
	for i := range r.hs {
		warm.merge(r.drive(ctx, i, cfg.tputInflight, cfg.warmup, false, 0))
	}
	// Let the flushers account the warm-up's last frames before the
	// measured byte count starts.
	time.Sleep(20 * time.Millisecond)
	bytes0 := r.encodedBytes()
	var dials0, retries0 int64
	for _, h := range r.hs {
		dials0 += h.counters().dials
		retries0 += h.maintRetries()
	}

	var lat tally
	var tput, plain throughput
	var latSums sumsSnap
	var latCounters liveCounters
	if !o.traced {
		pairs := max(1, int(o.measure/(2*cfg.slice)))
		slice := o.measure / time.Duration(2*pairs)
		for i := 0; i < pairs; i++ {
			lat.merge(onOneP(func() *tally { return r.drive(ctx, i, 1, slice, true, 0) }))
			tput.run(func() *tally { return r.tput(ctx, i, cfg.tputInflight, slice) })
		}
	} else {
		// Each cycle: plain throughput, traced latency, traced
		// throughput. The shims record only in the traced slices.
		cycles := max(1, int(o.measure/(3*cfg.slice)))
		slice := o.measure / time.Duration(3*cycles)
		for i := 0; i < cycles; i++ {
			h := r.hs[i%len(r.hs)]
			rec.on.Store(false)
			plain.run(func() *tally { return r.tput(ctx, i, cfg.tputInflight, slice) })
			rec.on.Store(true)
			s0, c0 := rec.query.snapshot(), h.counters()
			lat.merge(onOneP(func() *tally { return r.drive(ctx, i, 1, slice, true, 256) }))
			latSums.add(rec.query.snapshot().sub(s0))
			latCounters.add(h.counters().sub(c0))
			tput.run(func() *tally { return r.tput(ctx, i, cfg.tputInflight, slice) })
		}
		rec.on.Store(false)
	}
	heap := heapMiB()
	var dials, retries int64
	for _, h := range r.hs {
		dials += h.counters().dials
		retries += h.maintRetries()
	}
	var maintCPU time.Duration
	if o.traced && r.maintain {
		maintCPU = r.maintainCPU(ctx)
	}
	r.close()
	wireBytes := r.encodedBytes() - bytes0

	all := lat
	all.merge(&tput.tally)
	all.merge(&plain.tally)
	res.Attempted, res.Failed = all.attempted, all.failed
	for _, t := range []*tally{&warm, &all} {
		if t.wrong != nil && res.Correct {
			res.Correct, res.wrong = false, t.wrong
		}
	}
	if all.failure != nil {
		res.notef("first failed query: %v", all.failure)
	}
	if warm.failed > 0 {
		res.notef("warm-up: %d of %d queries failed: %v", warm.failed, warm.attempted, warm.failure)
	}
	slices.Sort(lat.lat)
	res.notef("latency phase: %d answered, p50 %.1f us, p90 %.1f us, p99 %.1f us, p999 %.1f us",
		len(lat.lat), us(quantile(lat.lat, 0.5)), us(quantile(lat.lat, 0.9)),
		us(quantile(lat.lat, 0.99)), us(quantile(lat.lat, 0.999)))
	if n := int64(len(r.rounds)); n > 0 {
		var sum time.Duration
		for _, d := range r.rounds {
			sum += d
		}
		roundMs := per(float64(sum)/float64(time.Millisecond), n)
		res.set("node.maintain.round_ms", roundMs)
		res.set("node.maintain.retries_per_round", per(float64(retries-retries0), n))
		res.notef("maintenance: %d rounds beside the throughput slices, %.1f ms and %.1f retried calls each",
			n, roundMs, per(float64(retries-retries0), n))
	}
	if maintCPU > 0 {
		res.set("node.maintain.cpu_ms", float64(maintCPU)/float64(time.Millisecond))
		res.notef("maintenance: one round alone takes %.1f ms of CPU", float64(maintCPU)/float64(time.Millisecond))
	}

	if !o.traced {
		res.set("p50_us", us(quantile(lat.lat, 0.5)))
		res.set("p90_us", us(quantile(lat.lat, 0.9)))
		res.set("cpu_us_per_query", tput.medianCPU())
		res.set("heap_mb", heap)
		res.set("hops_per_query", per(float64(all.hops), all.answered()))
		res.notef("throughput phase: %d in flight, %d answered in %.2f s, median slice %.0f queries/s",
			cfg.tputInflight, tput.answered(), tput.wall.Seconds(), tput.medianQPS())
		return res, nil
	}

	// Per-layer numbers come from the traced latency slices: one query in
	// flight, so the self times add up to the end-to-end time.
	nq := lat.attempted
	self, nodeSelf := latSums.selfTimes()
	res.set("transport.retry.self_us", per(us(self[layerRetry]), nq))
	res.set("transport.traced.self_us", per(us(self[layerTraced]), nq))
	res.set("transport.instrument.self_us", per(us(self[layerInstrument]), nq))
	res.set("transport.base.self_us", per(us(self[layerBase]), nq))
	res.set("node.handle.self_us", per(us(nodeSelf), nq))
	res.set("transport.calls_per_query", per(float64(latSums.calls), nq))
	res.set("transport.failed_calls_per_query", per(float64(latSums.failed), nq))
	for i, name := range []string{"hierarchical", "greedy", "backward", "nephew"} {
		res.set("node.hops."+name, per(float64(latCounters.modes[i]), nq))
	}
	res.set("transport.pool.dials", float64(dials-dials0))
	res.set("wire.frames_per_flush", per(float64(latCounters.frames), latCounters.flushes))
	res.set("wire.bytes_per_frame", per(float64(latCounters.fbytes), latCounters.frames))
	res.set("wire.bytes_per_query", per(float64(wireBytes), all.attempted))

	var e2e time.Duration
	for _, d := range lat.lat {
		e2e += d
	}
	selfSum := nodeSelf
	for _, d := range self {
		selfSum += d
	}
	cost := shimCost(200_000)
	overhead := per(float64(latSums.spans)*cost/1e3, nq)
	gap := per(us(e2e-selfSum), nq)
	res.set("trace.e2e_us", per(us(e2e), nq))
	res.set("trace.gap_us", gap)
	res.set("trace.shim_us_per_query", overhead)
	res.set("load.qps", plain.medianQPS())
	if p := plain.medianQPS(); p > 0 {
		res.set("trace.qps_drop_pct", 100*(p-tput.medianQPS())/p)
	}
	setRuntime(res, plain.rates, plain.answered())
	res.notef("traced latency: %.2f us per query; layer self times sum to %.2f us, gap %.3f us, shim overhead %.3f us (%.1f spans of %.0f ns)",
		per(us(e2e), nq), per(us(selfSum), nq), gap, overhead, per(float64(latSums.spans), nq), cost)

	enc, dec, err := replayCodec(lat.kept, r.hs[0].ttl)
	if err != nil {
		return nil, err
	}
	res.set("wire.encode_ns", enc)
	res.set("wire.decode_ns", dec)
	if cfg.guard {
		ns, err := r.hs[0].replayAdmit(lat.kept)
		if err != nil {
			return nil, err
		}
		res.set("overload.admit_ns", ns)
	}
	return res, nil
}

// hopFrames rebuilds the frames one answered query put on the wire: the
// request each hop received (the client's first) and the answer each hop
// returned.
func hopFrames(qr wire.QueryResult, ttl int) []wire.Message {
	target := qr.Path[len(qr.Path)-1]
	out := make([]wire.Message, 0, 2*len(qr.Path))
	for i := range qr.Path {
		req := wire.Typed(wire.TypeQuery, &wire.Query{
			Target: target, Mode: wire.ModeHierarchical, Hops: i, TTL: ttl - i, Path: qr.Path[:i],
		})
		req.From = clientName
		ans := qr
		out = append(out, req, wire.Typed(wire.TypeQueryResult, &ans))
	}
	return out
}

// replayCodec times the binary codec on the run's own frames and returns
// the mean encode and decode time per frame in ns.
func replayCodec(kept []wire.QueryResult, ttl int) (encNs, decNs float64, err error) {
	var msgs []wire.Message
	for _, qr := range kept {
		msgs = append(msgs, hopFrames(qr, ttl)...)
	}
	if len(msgs) == 0 {
		return 0, 0, nil
	}
	bodies := make([][]byte, len(msgs))
	for i, m := range msgs {
		b, err := wire.Binary.AppendMessage(nil, m)
		if err != nil {
			return 0, 0, fmt.Errorf("codec replay: %w", err)
		}
		bodies[i] = b
	}
	const passes = 20
	var buf []byte
	start := time.Now()
	for p := 0; p < passes; p++ {
		for _, m := range msgs {
			buf, _ = wire.Binary.AppendMessage(buf[:0], m)
		}
	}
	enc := time.Since(start)
	start = time.Now()
	for p := 0; p < passes; p++ {
		for _, b := range bodies {
			if _, err := wire.Binary.DecodeMessage(b); err != nil {
				return 0, 0, fmt.Errorf("codec replay: %w", err)
			}
		}
	}
	dec := time.Since(start)
	n := float64(passes * len(msgs))
	return float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n, nil
}

// replayAdmit times the overload guard's admission of the run's own hops:
// the same callers, in the same order, against a guard with the nodes'
// configuration. It returns ns per admitted request.
func (h *hier) replayAdmit(kept []wire.QueryResult) (float64, error) {
	var froms []string
	for _, qr := range kept {
		froms = append(froms, clientName)
		for _, name := range qr.Path[:len(qr.Path)-1] {
			froms = append(froms, h.byName[name].Addr())
		}
	}
	if len(froms) == 0 {
		return 0, nil
	}
	g := overload.NewGuard(neverShed(), obs.NewRegistry())
	const passes = 50
	start := time.Now()
	for p := 0; p < passes; p++ {
		for _, from := range froms {
			tk, v := g.Admit(from, wire.TypeQuery)
			if !v.OK {
				return 0, fmt.Errorf("admission replay shed %s: %s", from, v.Reason)
			}
			tk.Done(10 * time.Microsecond)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(passes*len(froms)), nil
}
