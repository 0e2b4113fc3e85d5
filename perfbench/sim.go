package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/overlay"
	"repro/internal/xrand"
)

// simConfig is one Figure-9 cell of the §6.2 simulation.
type simConfig struct {
	level1, tChildren, dChildren int
	k, q                         int
	density                      float64 // share of T's sibling ring attacked at random
	setups                       int     // set-ups measured; setup_s is their median
	trees                        int     // topologies kept (the last built)
	systemsPerTree               int     // seeded, attacked systems over each tree
	workers                      int     // Monte-Carlo workers in the throughput phase
	hopsLo, hopsHi               float64 // oracle bounds on the mean hop count
	warmup, slice                time.Duration
	routeReplays                 int
}

func simFig9(tiny bool) simConfig {
	c := simConfig{
		level1: 1000, tChildren: 50_000, dChildren: 8,
		k: 5, q: 10, density: 0.3,
		setups: 5, trees: 3, systemsPerTree: 3, workers: 2,
		hopsLo: 7.8, hopsHi: 10.7,
		warmup: 500 * time.Millisecond, slice: time.Second,
		routeReplays: 20_000,
	}
	if tiny {
		// The paper's hop range holds only at its scale; the tiny cell
		// checks delivery and the hop identities, with loose hop bounds.
		c.level1, c.tChildren, c.setups, c.trees, c.systemsPerTree = 100, 200, 2, 2, 2
		c.hopsLo, c.hopsHi = 1, 30
		c.warmup, c.slice, c.routeReplays = 20*time.Millisecond, 50*time.Millisecond, 200
	}
	return c
}

// simTree is the §6.2 topology: a root with level1 children, T the first,
// T with tChildren children, one of them (v2) with dChildren children, D
// the first of those.
type simTree struct {
	tree *hierarchy.Tree
	t, d *hierarchy.Node
}

func buildTree(cfg simConfig) (*simTree, error) {
	tree := hierarchy.New()
	var t *hierarchy.Node
	for i := 0; i < cfg.level1; i++ {
		n, err := tree.AddChild(tree.Root(), fmt.Sprintf("s%d", i))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			t = n
		}
	}
	for i := 0; i < cfg.tChildren; i++ {
		if _, err := tree.AddChild(t, fmt.Sprintf("c%d", i)); err != nil {
			return nil, err
		}
	}
	v2 := t.Children()[cfg.tChildren/2]
	for i := 0; i < cfg.dChildren; i++ {
		if _, err := tree.AddChild(v2, fmt.Sprintf("g%d", i)); err != nil {
			return nil, err
		}
	}
	tree.Warm()
	return &simTree{tree: tree, t: t, d: v2.Children()[0]}, nil
}

// simInstance is one seeded, attacked and prepared system over a tree.
// Systems may share a tree: it is frozen once built.
type simInstance struct {
	*simTree
	sys *core.System
}

// buildSystem makes a system over st with a random attack on T's sibling
// ring, and prepares it for queries to D.
func buildSystem(cfg simConfig, st *simTree, seed uint64, inst int) (*simInstance, error) {
	sys, err := core.New(st.tree, core.Config{
		K: cfg.k, Q: cfg.q,
		Seed:             xrand.Derive(seed, uint64(inst)).Uint64(),
		LazyOverlayAbove: 1,
	})
	if err != nil {
		return nil, err
	}
	camp, err := attack.Random(xrand.Derive(seed, 0xa77ac+uint64(inst)), st.t, attackCount(cfg))
	if err != nil {
		return nil, err
	}
	if err := camp.Execute(sys); err != nil {
		return nil, err
	}
	sys.Prepare(st.d)
	return &simInstance{simTree: st, sys: sys}, nil
}

// attackCount is Figure 9's victim count: T plus the density's share of
// its siblings.
func attackCount(cfg simConfig) int { return 1 + int(cfg.density*float64(cfg.level1)) }

// simTally is what Monte-Carlo workers saw.
type simTally struct {
	queries                         int64
	hops, hier, ovl, backward, neph int64
	lat                             []time.Duration
	wrong                           error
}

func (t *simTally) merge(o *simTally) {
	t.queries += o.queries
	t.hops += o.hops
	t.hier += o.hier
	t.ovl += o.ovl
	t.backward += o.backward
	t.neph += o.neph
	t.lat = append(t.lat, o.lat...)
	if t.wrong == nil {
		t.wrong = o.wrong
	}
}

type simRun struct {
	cfg     simConfig
	seed    uint64
	insts   []*simInstance
	streams atomic.Uint64 // worker RNG streams handed out so far
}

// drive runs workers Monte-Carlo query loops to D for d, moving to the
// next instance every 256 queries, and checks every outcome.
func (r *simRun) drive(workers int, d time.Duration, timeEach, tracePath bool) *simTally {
	deadline := time.Now().Add(d)
	parts := make([]simTally, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range parts {
		rng := xrand.Derive(r.seed, 0x51a+r.streams.Add(1))
		go func(t *simTally) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i%16 == 0 && !time.Now().Before(deadline) {
					return
				}
				in := r.insts[(i/256)%len(r.insts)]
				start := time.Now()
				res, err := in.sys.QueryNode(in.d, core.QueryOptions{Rng: rng, TracePath: tracePath})
				took := time.Since(start)
				t.queries++
				if err == nil {
					err = checkSim(res, in.d, in.sys.Alive)
				}
				if err != nil {
					if t.wrong == nil {
						t.wrong = err
					}
					continue
				}
				t.hops += int64(res.Hops)
				t.hier += int64(res.HierarchicalHops)
				t.ovl += int64(res.OverlayHops)
				t.backward += int64(res.BackwardHops)
				t.neph += int64(res.NephewHops)
				if timeEach {
					t.lat = append(t.lat, took)
				}
			}
		}(&parts[w])
	}
	wg.Wait()
	var out simTally
	for i := range parts {
		out.merge(&parts[i])
	}
	return &out
}

// simPhase is a throughput phase's totals and per-slice rates.
type simPhase struct {
	simTally
	rates
}

func (p *simPhase) run(f func() *simTally) {
	p.rates.time(func() int64 {
		part := f()
		p.merge(part)
		return part.queries
	})
}

func runSim(_ context.Context, cfg simConfig, o options) (*result, error) {
	res := newResult()
	r := &simRun{cfg: cfg, seed: o.seed}
	// A set-up is a tree and its first system; the median of cfg.setups is
	// reported. The last cfg.trees trees are kept, each carrying
	// systemsPerTree differently seeded and attacked systems.
	var setups, trees, systems []float64
	for i := 0; i < cfg.setups; i++ {
		keep := i >= cfg.setups-cfg.trees
		runtime.GC()
		start := time.Now()
		st, err := buildTree(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		tt := time.Since(start)
		trees = append(trees, tt.Seconds())
		n := 1
		if keep {
			n = cfg.systemsPerTree
		}
		for j := 0; j < n; j++ {
			start := time.Now()
			in, err := buildSystem(cfg, st, o.seed, i*cfg.systemsPerTree+j)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			sysTime := time.Since(start)
			if j == 0 {
				setups = append(setups, (tt + sysTime).Seconds())
			}
			systems = append(systems, sysTime.Seconds())
			if keep {
				r.insts = append(r.insts, in)
			}
		}
	}
	res.set("setup_s", median(setups))
	res.notef("set-up times (s): %.3f", setups)
	res.set("core.setup.tree_s", median(trees))
	res.set("core.setup.system_s", median(systems))
	alpha := float64(attackCount(cfg)) / float64(cfg.level1)
	if p, err := analysis.RandomAttackSuccess(cfg.level1, cfg.k, alpha); err == nil {
		res.notef("analysis.RandomAttackSuccess(n=%d, k=%d, alpha=%.3f) = %.6f", cfg.level1, cfg.k, alpha, p)
	}

	warm := r.drive(cfg.workers, cfg.warmup, false, false)
	var lat simTally
	var tput, plain simPhase
	if !o.traced {
		pairs := max(1, int(o.measure/(2*cfg.slice)))
		slice := o.measure / time.Duration(2*pairs)
		for i := 0; i < pairs; i++ {
			lat.merge(onOneP(func() *simTally { return r.drive(1, slice, true, false) }))
			tput.run(func() *simTally { return r.drive(cfg.workers, slice, false, false) })
		}
	} else {
		// Each cycle: a plain throughput slice, then a traced one in
		// which every query is timed and records its path.
		pairs := max(1, int(o.measure/(2*cfg.slice)))
		slice := o.measure / time.Duration(2*pairs)
		for i := 0; i < pairs; i++ {
			plain.run(func() *simTally { return r.drive(cfg.workers, slice, false, false) })
			tput.run(func() *simTally { return r.drive(cfg.workers, slice, true, true) })
		}
	}
	heap := heapMiB()

	all := lat
	all.merge(&tput.simTally)
	all.merge(&plain.simTally)
	res.Attempted = all.queries
	for _, t := range []*simTally{warm, &all} {
		if t.wrong != nil && res.Correct {
			res.Correct, res.wrong = false, t.wrong
		}
	}
	meanHops := per(float64(all.hops), all.queries)
	if err := checkSimHops(meanHops, cfg.hopsLo, cfg.hopsHi); err != nil && res.Correct {
		res.Correct, res.wrong = false, err
	}
	res.notef("sim: %d queries to D over %d instances, mean %.3f hops", all.queries, len(r.insts), meanHops)

	if !o.traced {
		slices.Sort(lat.lat)
		res.set("p50_us", us(quantile(lat.lat, 0.5)))
		res.set("p90_us", us(quantile(lat.lat, 0.9)))
		res.set("cpu_us_per_query", tput.medianCPU())
		res.set("heap_mb", heap)
		res.set("hops_per_query", meanHops)
		res.notef("latency phase: %d queries, p99 %.2f us, p999 %.2f us",
			len(lat.lat), us(quantile(lat.lat, 0.99)), us(quantile(lat.lat, 0.999)))
		res.notef("throughput phase: %d workers, %d queries in %.2f s, median slice %.0f queries/s",
			cfg.workers, tput.queries, tput.wall.Seconds(), tput.medianQPS())
		return res, nil
	}

	var sum time.Duration
	for _, d := range tput.lat {
		sum += d
	}
	n := tput.queries
	res.set("core.query_us", per(us(sum), n))
	res.set("core.hops.hierarchical", per(float64(tput.hier), n))
	res.set("core.hops.overlay", per(float64(tput.ovl), n))
	res.set("core.hops.backward", per(float64(tput.backward), n))
	res.set("core.hops.nephew", per(float64(tput.neph), n))
	res.set("load.qps", plain.medianQPS())
	if p := plain.medianQPS(); p > 0 {
		res.set("trace.qps_drop_pct", 100*(p-tput.medianQPS())/p)
	}
	setRuntime(res, plain.rates, plain.queries)
	routeUs, nsPerHop, err := r.replayRoutes(o.seed)
	if err != nil {
		return nil, err
	}
	res.set("overlay.route_us", routeUs)
	res.set("overlay.route_ns_per_hop", nsPerHop)
	return res, nil
}

// replayRoutes times overlay routing alone on T's attacked sibling ring:
// routes toward the dead T from seeded alive entrances, as the queries'
// first overlay phase does. It returns µs per route and ns per hop.
func (r *simRun) replayRoutes(seed uint64) (float64, float64, error) {
	in := r.insts[0]
	ov := in.sys.Overlay(in.tree.Root())
	od := in.t.RingIndex()
	rng := xrand.Derive(seed, 0x7e7)
	srcs := make([]int, r.cfg.routeReplays)
	for i := range srcs {
		for {
			s := rng.IntN(ov.Size())
			if s != od && ov.Alive(s) {
				srcs[i] = s
				break
			}
		}
	}
	var hops int64
	start := time.Now()
	for _, s := range srcs {
		res, err := ov.Route(s, od, overlay.RouteOptions{})
		if err != nil {
			return 0, 0, fmt.Errorf("route replay: %w", err)
		}
		hops += int64(res.Hops)
	}
	took := time.Since(start)
	return per(us(took), int64(len(srcs))), per(float64(took.Nanoseconds()), hops), nil
}
