package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/wire"
)

// The oracles below know only the names the benchmark gave the nodes, the
// attack it applied and the paper's published bounds; none of them calls
// into the routing code whose answers they judge.

// answerFor is the data the benchmark gives each live node: derived from
// the node's name, so an answer names the node that produced it.
func answerFor(name string) string { return "data:" + name }

// liveQuery is one pre-generated live query.
type liveQuery struct {
	target    string // display name of the node asked for
	entry     string // display name of the node the query enters at
	entryAddr string
	depth     int  // levels between the root and the target
	fromRoot  bool // entered at the root
}

// checkLive judges one found answer of a live query. The answer must be
// the target's own data, and the path must start at the entry, end at the
// target, visit no suppressed node and agree with the hop count. A query
// entering at the root of a healthy hierarchy takes exactly depth(target)
// hops (Algorithm 2's top-down path).
func checkLive(q liveQuery, qr wire.QueryResult, suppressed map[string]bool, healthy bool) error {
	if qr.Answer != answerFor(q.target) {
		return fmt.Errorf("query for %s from %s answered %q, want %q", q.target, q.entry, qr.Answer, answerFor(q.target))
	}
	if len(qr.Path) == 0 {
		return fmt.Errorf("query for %s from %s: empty path", q.target, q.entry)
	}
	if qr.Path[0] != q.entry {
		return fmt.Errorf("query for %s: path starts at %s, entered at %s", q.target, qr.Path[0], q.entry)
	}
	if last := qr.Path[len(qr.Path)-1]; last != q.target {
		return fmt.Errorf("query for %s from %s: path ends at %s", q.target, q.entry, last)
	}
	for _, p := range qr.Path {
		if suppressed[p] {
			return fmt.Errorf("query for %s from %s: path visits suppressed node %s", q.target, q.entry, p)
		}
	}
	if qr.Hops != len(qr.Path)-1 {
		return fmt.Errorf("query for %s from %s: %d hops over a path of %d nodes", q.target, q.entry, qr.Hops, len(qr.Path))
	}
	if healthy && q.fromRoot && qr.Hops != q.depth {
		return fmt.Errorf("query for %s from the root: %d hops, want depth %d", q.target, qr.Hops, q.depth)
	}
	return nil
}

// checkSim judges one Monte-Carlo query to dst. §6.2 reports 100%
// delivery at the Figure-9 densities, so an undelivered query is wrong,
// not merely failed. The hop kinds must add up to the hop count, and a
// recorded path must end at dst and visit no attacked node.
func checkSim(res core.QueryResult, dst *hierarchy.Node, alive func(*hierarchy.Node) bool) error {
	if res.Outcome != core.QueryDelivered {
		return fmt.Errorf("query to %s not delivered: %v", dst.Name(), res.Outcome)
	}
	if sum := res.HierarchicalHops + res.OverlayHops + res.NephewHops; sum != res.Hops {
		return fmt.Errorf("query to %s: %d hops, but its kinds add up to %d", dst.Name(), res.Hops, sum)
	}
	if res.Path == nil {
		return nil
	}
	if last := res.Path[len(res.Path)-1]; last != dst {
		return fmt.Errorf("query to %s: path ends at %s", dst.Name(), last.Name())
	}
	if len(res.Path) != res.Hops+1 {
		return fmt.Errorf("query to %s: %d hops over a path of %d nodes", dst.Name(), res.Hops, len(res.Path))
	}
	for _, n := range res.Path {
		if !alive(n) {
			return fmt.Errorf("query to %s: path visits attacked node %s", dst.Name(), n.Name())
		}
	}
	return nil
}

// checkSimHops judges the run's mean hop count against the paper's k=5
// Figure-9 endpoints: 7.8 hops with T alone attacked, 10.7 at 70%.
func checkSimHops(mean, lo, hi float64) error {
	if mean < lo || mean > hi {
		return fmt.Errorf("mean hops %.3f outside the paper's range [%.1f, %.1f]", mean, lo, hi)
	}
	return nil
}
