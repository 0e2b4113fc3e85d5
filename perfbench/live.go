package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/overload"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// liveConfig describes one live workload: a hierarchy of in-process
// nodes, the attack applied to it and the closed-loop load.
type liveConfig struct {
	fanouts       []int
	tcp           bool    // pooled TCP on loopback; otherwise transport.Mem
	guard         bool    // overload guard on every node, sized never to shed
	runVictims    int     // contiguous counter-clockwise run of suppressed level-1 nodes
	randomVictims int     // further level-1 nodes suppressed at random, each isolated
	zipf          float64 // Zipf exponent over alive targets; 0 draws uniformly
	tputInflight  int     // queries in flight in the throughput phase
	// maintain runs one §4.3 maintenance round on every node beside each
	// throughput slice: with 1 s slices, a round every 2 s, hoursd's
	// default -probe period.
	maintain  bool
	setups    int           // times a hierarchy is built; setup_s is their median
	instances int           // hierarchies kept (the last built), measured in turn
	warmup    time.Duration // unmeasured load before the first phase
	slice     time.Duration // length of one measured phase slice
}

// The node settings are hoursd's defaults.
const (
	nodeK          = 3
	nodeQ          = 4
	nodeSuspicionK = 3
	queryTimeout   = 5 * time.Second
	queryInputs    = 1 << 14 // pre-generated queries, used round-robin
	clientName     = "client"
	// deploySeed fixes the deployment: node seeds, hence routing tables,
	// and the attack on each hierarchy are the same in every run, so a
	// geometry in which some queries fail cannot appear on one seed only.
	// -seed draws the queries.
	deploySeed = 1
)

func liveTCP(tiny bool) liveConfig {
	c := liveConfig{
		fanouts:      []int{16, 16},
		tcp:          true,
		tputInflight: 16,
		setups:       7,
		instances:    1,
		warmup:       time.Second,
		slice:        time.Second,
	}
	if tiny {
		c.fanouts, c.setups, c.warmup, c.slice = []int{3, 3}, 1, 50*time.Millisecond, 50*time.Millisecond
	}
	return c
}

func liveMemAttack(tiny bool) liveConfig {
	c := liveConfig{
		fanouts:       []int{32, 32},
		guard:         true,
		runVictims:    4,
		randomVictims: 8,
		zipf:          1,
		tputInflight:  2,
		maintain:      true,
		setups:        3,
		instances:     3,
		warmup:        500 * time.Millisecond,
		slice:         time.Second,
	}
	if tiny {
		c.fanouts, c.runVictims, c.randomVictims = []int{8, 3}, 2, 1
		c.setups, c.instances = 2, 2
		c.warmup, c.slice = 50*time.Millisecond, 50*time.Millisecond
	}
	return c
}

// hier is one running live hierarchy with its client.
type hier struct {
	cfg        liveConfig
	rec        *recorder // nil unless the run is traced
	nodeReg    *obs.Registry
	clientReg  *obs.Registry
	bases      []io.Closer // pooled TCP bases, closed at teardown
	client     transport.Transport
	nodes      []*node.Node // creation order, root first
	byName     map[string]*node.Node
	depth      map[string]int
	level1     []*node.Node
	suppressed map[string]bool
	victims    []string // suppressed level-1 nodes as name@ring-index
	ttl        int
}

// stack builds hoursd's default decorator chain (Retry → Trace →
// Instrument → base) from the public constructors. When the run is
// traced a shim sits above every layer.
func (h *hier) stack(base transport.Transport, reg *obs.Registry, tracer *trace.Tracer, seed uint64, client bool) transport.Transport {
	wrap := func(t transport.Transport, l layer) transport.Transport {
		if h.rec == nil {
			return t
		}
		return &shim{inner: t, l: l, client: client, rec: h.rec}
	}
	t := wrap(base, layerBase)
	t = wrap(transport.Instrument(t, reg), layerInstrument)
	t = wrap(transport.Trace(t, tracer, ""), layerTraced)
	return wrap(transport.Retry(t, transport.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 25 * time.Millisecond,
		MaxBackoff:  time.Second,
		Seed:        seed,
	}, reg), layerRetry)
}

func pooledBase(reg *obs.Registry, connsPerPeer int) *transport.PooledTCP {
	p := transport.NewPooledTCP(transport.PoolConfig{
		MaxConnsPerPeer:    connsPerPeer,
		MaxInflightPerConn: 32,
		DialTimeout:        time.Second,
		IOTimeout:          3 * time.Second,
		BatchLinger:        transport.DefaultBatchLinger,
		BatchMaxBytes:      64 << 10,
	})
	p.SetMetrics(reg)
	return p
}

// freeAddr reserves a loopback port for a node: node.Config.Addr must be
// concrete, since the node advertises it to its peers.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// neverShed configures the overload guard with limits far above anything
// the closed loop can offer: it runs on every hop but never sheds.
func neverShed() overload.Config {
	return overload.Config{
		Admission:   overload.AdmissionConfig{Rate: 1e9, Burst: 1e9},
		Concurrency: overload.AIMDConfig{Min: 1 << 16, Max: 1 << 16},
	}
}

// buildHier starts the nodes, joins each to its parent and builds every
// routing table, the way hoursd -demo does.
func buildHier(ctx context.Context, cfg liveConfig, seed uint64, rec *recorder) (*hier, error) {
	h := &hier{
		cfg:        cfg,
		rec:        rec,
		nodeReg:    obs.NewRegistry(),
		clientReg:  obs.NewRegistry(),
		byName:     make(map[string]*node.Node),
		depth:      make(map[string]int),
		suppressed: make(map[string]bool),
	}
	tracer := trace.New(trace.Config{SampleRate: 0, Seed: seed})
	var nodeBase, clientBase transport.Transport
	if cfg.tcp {
		nb, cb := pooledBase(h.nodeReg, 4), pooledBase(h.clientReg, 1)
		h.bases = append(h.bases, nb, cb)
		nodeBase, clientBase = nb, cb
	} else {
		mem := transport.NewMem()
		nodeBase, clientBase = mem, mem
	}
	nodeStack := h.stack(nodeBase, h.nodeReg, tracer, seed, false)
	h.client = h.stack(clientBase, h.clientReg, trace.New(trace.Config{SampleRate: 0, Seed: seed + 1}), seed+1, true)
	var guard *overload.Config
	if cfg.guard {
		g := neverShed()
		guard = &g
	}

	mk := func(name, parentAddr string, depth int) (*node.Node, error) {
		display := name
		if display == "" {
			display = "."
		}
		addr := "mem://" + display
		if cfg.tcp {
			a, err := freeAddr()
			if err != nil {
				return nil, err
			}
			addr = a
		}
		nd, err := node.New(node.Config{
			Name: name, Addr: addr, ParentAddr: parentAddr,
			K: nodeK, Q: nodeQ, SuspicionK: nodeSuspicionK,
			Seed:     xrand.Derive(seed, uint64(len(h.nodes))).Uint64(),
			Data:     answerFor(display),
			Metrics:  h.nodeReg,
			Tracer:   tracer,
			Overload: guard,
		}, nodeStack)
		if err != nil {
			return nil, err
		}
		if err := nd.Start(); err != nil {
			return nil, err
		}
		h.nodes = append(h.nodes, nd)
		h.byName[display] = nd
		h.depth[display] = depth
		return nd, nil
	}
	root, err := mk("", "", 0)
	if err != nil {
		h.close()
		return nil, err
	}
	frontier := []*node.Node{root}
	for li, fan := range cfg.fanouts {
		var next []*node.Node
		for _, p := range frontier {
			for i := 0; i < fan; i++ {
				name := fmt.Sprintf("n%d-%d", li+1, i)
				if p != root {
					name += "." + p.Name()
				}
				nd, err := mk(name, p.Addr(), li+1)
				if err == nil {
					err = nd.Join(ctx)
				}
				if err != nil {
					h.close()
					return nil, err
				}
				next = append(next, nd)
			}
		}
		if li == 0 {
			h.level1 = next
		}
		frontier = next
	}
	for _, nd := range h.nodes[1:] {
		if err := nd.BuildTable(ctx); err != nil {
			h.close()
			return nil, fmt.Errorf("build table for %s: %w", nd.Name(), err)
		}
	}
	h.ttl = 4 * len(h.nodes)
	return h, nil
}

// close stops the nodes, children before parents, then the pooled bases.
func (h *hier) close() {
	for i := len(h.nodes) - 1; i >= 0; i-- {
		_ = h.nodes[i].Stop()
	}
	for _, b := range h.bases {
		_ = b.Close()
	}
}

// attack suppresses a contiguous counter-clockwise run of level-1 nodes
// (the Figure-10 shape) plus further isolated level-1 nodes at random,
// then runs
// §4.3 recovery rounds until the rings stop changing.
func (h *hier) attack(ctx context.Context, seed uint64) error {
	n := len(h.level1)
	if h.cfg.runVictims+h.cfg.randomVictims == 0 {
		return nil
	}
	if h.cfg.runVictims+h.cfg.randomVictims >= n {
		return fmt.Errorf("attack of %d+%d level-1 nodes leaves none of %d alive", h.cfg.runVictims, h.cfg.randomVictims, n)
	}
	byIndex := make([]*node.Node, n)
	for _, nd := range h.level1 {
		i := nd.Index()
		if i < 0 || i >= n || byIndex[i] != nil {
			return fmt.Errorf("level-1 node %s has ring index %d", nd.Name(), i)
		}
		byIndex[i] = nd
	}
	rng := xrand.Derive(seed, 0xa77ac)
	victims := make(map[int]bool)
	start := rng.IntN(n)
	for j := 0; j < h.cfg.runVictims; j++ {
		victims[(start-j+n)%n] = true
	}
	// The random victims are single nodes, none next to another victim,
	// so the run stays exactly runVictims long: with a longer run some
	// queries fail, on some seeds only, and a benchmark cannot count such
	// failures the same way in every run.
	free := func(i int) bool {
		return !victims[i] && !victims[(i+1)%n] && !victims[(i-1+n)%n]
	}
	for left := h.cfg.randomVictims; left > 0; {
		var open []int
		for i := 0; i < n; i++ {
			if free(i) {
				open = append(open, i)
			}
		}
		if len(open) == 0 {
			return fmt.Errorf("no room for %d more isolated victims among %d level-1 nodes", left, n)
		}
		victims[open[rng.IntN(len(open))]] = true
		left--
	}
	for i := 0; i < n; i++ {
		if victims[i] {
			byIndex[i].Suppress(true)
			h.suppressed[byIndex[i].Name()] = true
			h.victims = append(h.victims, fmt.Sprintf("%s@%d", byIndex[i].Name(), i))
		}
	}
	return h.converge(ctx)
}

// converge runs maintenance rounds until a round sees no failed probe and
// originates no repair, after the SuspicionK rounds a dead pointer needs.
func (h *hier) converge(ctx context.Context) error {
	failures := h.nodeReg.Counter("hours_probe_failures_total")
	repairs := h.nodeReg.Counter("hours_repairs_originated_total")
	for round := 1; round <= 40; round++ {
		f0, r0 := failures.Value(), repairs.Value()
		h.maintainRound(ctx)
		if round > nodeSuspicionK && failures.Value() == f0 && repairs.Value() == r0 {
			return nil
		}
	}
	return errors.New("recovery did not converge in 40 rounds")
}

// maintainRound runs one §4.3 maintenance round on every node, a few
// nodes at a time, and returns its wall time.
func (h *hier) maintainRound(ctx context.Context) time.Duration {
	ctx = context.WithValue(ctx, maintKey{}, true)
	start := time.Now()
	const workers = 16
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(h.nodes) {
					return
				}
				h.nodes[i].MaintainOnce(ctx)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// queries draws the run's inputs from the seed.
func (h *hier) queries(seed uint64) ([]liveQuery, error) {
	rng := xrand.Derive(seed, 0x9e7)
	var targets []string
	for _, nd := range h.nodes[1:] {
		if !h.suppressed[nd.Name()] {
			targets = append(targets, nd.Name())
		}
	}
	if len(targets) == 0 {
		return nil, errors.New("no alive target")
	}
	// A seeded permutation decides which names the popular Zipf ranks
	// fall on.
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	var zipf *workload.Zipf
	if h.cfg.zipf > 0 {
		z, err := workload.NewZipf(len(targets), h.cfg.zipf)
		if err != nil {
			return nil, err
		}
		zipf = z
	}
	root, rings := h.nodes[0], h.aliveRings()
	qs := make([]liveQuery, queryInputs)
	for i := range qs {
		var t string
		if zipf != nil {
			t = targets[zipf.Sample(rng)]
		} else {
			t = targets[rng.IntN(len(targets))]
		}
		var entry *node.Node
		if h.cfg.tcp {
			// The client holds two connections: the root and n1-0.
			entry = root
			if rng.IntN(2) == 1 {
				entry = h.level1[0]
			}
		} else {
			e, err := ringEntry(rng, rings, t)
			if err != nil {
				return nil, err
			}
			entry = e
		}
		qs[i] = liveQuery{
			target: t, entry: entry.Name(), entryAddr: entry.Addr(),
			depth: h.depth[t], fromRoot: entry == root,
		}
	}
	return qs, nil
}

// ringEntry draws the entry of a query to target from the alive members
// of a sibling ring that holds the target or one of its ancestors, so the
// query is routable by design. rings maps a parent's name to its alive
// children.
func ringEntry(rng *rand.Rand, rings map[string][]*node.Node, target string) (*node.Node, error) {
	labels := strings.Split(target, ".")
	pick := rng.IntN(len(labels))
	parent := "."
	if pick+1 < len(labels) {
		parent = strings.Join(labels[pick+1:], ".")
	}
	ring := rings[parent]
	if len(ring) == 0 {
		return nil, fmt.Errorf("the ring holding %s has no alive member", strings.Join(labels[pick:], "."))
	}
	return ring[rng.IntN(len(ring))], nil
}

// aliveRings maps each parent's name to its alive children.
func (h *hier) aliveRings() map[string][]*node.Node {
	rings := make(map[string][]*node.Node)
	for _, nd := range h.nodes[1:] {
		if h.suppressed[nd.Name()] {
			continue
		}
		parent := "."
		if i := strings.IndexByte(nd.Name(), '.'); i >= 0 {
			parent = nd.Name()[i+1:]
		}
		rings[parent] = append(rings[parent], nd)
	}
	return rings
}

// ask sends one query from the client and decodes the answer. It
// returns the time from send to answer: the client's Call.
func (h *hier) ask(ctx context.Context, q *liveQuery) (wire.QueryResult, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, queryTimeout)
	defer cancel()
	req := wire.Typed(wire.TypeQuery, &wire.Query{
		Target: q.target, Mode: wire.ModeHierarchical, TTL: h.ttl,
	})
	req.From = clientName
	start := time.Now()
	resp, err := h.client.Call(ctx, q.entryAddr, req)
	took := time.Since(start)
	if err != nil {
		return wire.QueryResult{}, took, err
	}
	if resp.Type != wire.TypeQueryResult {
		return wire.QueryResult{}, took, fmt.Errorf("unexpected reply %s", resp.Type)
	}
	var qr wire.QueryResult
	if err := resp.Decode(&qr); err != nil {
		return wire.QueryResult{}, took, err
	}
	return qr, took, nil
}
