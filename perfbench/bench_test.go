package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// tinyWorkloads are few-node versions of the command's workloads.
var tinyWorkloads = map[string]runner{
	"live-tcp":        func(ctx context.Context, o options) (*result, error) { return runLive(ctx, liveTCP(true), o) },
	"live-mem-attack": func(ctx context.Context, o options) (*result, error) { return runLive(ctx, liveMemAttack(true), o) },
	"sim-fig9":        func(ctx context.Context, o options) (*result, error) { return runSim(ctx, simFig9(true), o) },
}

// TestSmoke runs a few-node version of every workload, plain and traced,
// and prints its result as the command does: every answer must pass its
// oracle, no query may fail, and the result line must carry exactly the
// mode's metrics.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		w, ok := tinyWorkloads[name]
		if !ok {
			t.Fatalf("workload %s has no tiny version", name)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				res, err := w(context.Background(), options{seed: 7, measure: 300 * time.Millisecond, traced: traced})
				if err != nil {
					t.Fatal(err)
				}
				var out, errs bytes.Buffer
				if code := report(name, res, traced, &out, &errs); code != 0 {
					t.Fatalf("exit %d; stderr:\n%s\nstdout:\n%s", code, errs.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", got.Correct, got.Attempted, got.Failed, out.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(got.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(got.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := got.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestReportFailsOnWrongAnswer checks that an oracle violation makes the
// command exit non-zero while still printing its result line.
func TestReportFailsOnWrongAnswer(t *testing.T) {
	res := newResult()
	for _, d := range endToEnd {
		res.set(d.name, 1)
	}
	res.Attempted = 1
	res.Correct, res.wrong = false, errors.New("query for x answered y")
	var out, errs bytes.Buffer
	if code := report("w", res, false, &out, &errs); code == 0 {
		t.Fatal("a wrong answer exited 0")
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("result line does not report the wrong answer: %s", out.String())
	}
}

// liveAnswer builds a tiny attacked in-memory hierarchy and returns one
// real answer that passes the oracle, with its query.
func liveAnswer(t *testing.T) (*hier, liveQuery, wire.QueryResult) {
	t.Helper()
	ctx := context.Background()
	h, err := buildHier(ctx, liveMemAttack(true), deploySeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.close)
	if err := h.attack(ctx, 3); err != nil {
		t.Fatal(err)
	}
	qs, err := h.queries(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		q := qs[i]
		if q.depth < 2 || q.entry == q.target {
			continue
		}
		qr, _, err := h.ask(ctx, &q)
		if err != nil || !qr.Found {
			t.Fatalf("query for %s from %s: %v %+v", q.target, q.entry, err, qr)
		}
		if err := checkLive(q, qr, h.suppressed, false); err != nil {
			t.Fatalf("a real answer fails the oracle: %v", err)
		}
		return h, q, qr
	}
	t.Fatal("no multi-hop query among the inputs")
	return nil, liveQuery{}, wire.QueryResult{}
}

func TestCheckLiveRejectsCorruptAnswers(t *testing.T) {
	h, q, good := liveAnswer(t)
	var victim string
	for name := range h.suppressed {
		victim = name
		break
	}
	corrupt := map[string]func(qr *wire.QueryResult){
		"answer of another node": func(qr *wire.QueryResult) { qr.Answer = answerFor(q.entry) },
		"path ends elsewhere":    func(qr *wire.QueryResult) { qr.Path[len(qr.Path)-1] = q.entry },
		"path starts elsewhere":  func(qr *wire.QueryResult) { qr.Path[0] = q.target },
		"suppressed node":        func(qr *wire.QueryResult) { qr.Path = append([]string{qr.Path[0], victim}, qr.Path[1:]...); qr.Hops++ },
		"hops disagree":          func(qr *wire.QueryResult) { qr.Hops++ },
		"empty path":             func(qr *wire.QueryResult) { qr.Path = nil },
	}
	for name, f := range corrupt {
		qr := good
		qr.Path = append([]string(nil), good.Path...)
		f(&qr)
		if err := checkLive(q, qr, h.suppressed, false); err == nil {
			t.Errorf("%s: accepted %+v", name, qr)
		}
	}
}

// TestAttackedHierarchiesRouteEveryQuery sends, on each attacked
// hierarchy of live-mem-attack, a query for every alive target from every
// alive member of every ring the entry rule allows: a workload whose
// queries may fail on some seeds could not be measured the same way in
// every run.
func TestAttackedHierarchiesRouteEveryQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 1,057-node hierarchies")
	}
	ctx := context.Background()
	cfg := liveMemAttack(false)
	for i := 0; i < cfg.instances; i++ {
		h, err := buildHier(ctx, cfg, deploySeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer h.close()
		if err := h.attack(ctx, xrand.Derive(deploySeed, uint64(i)).Uint64()); err != nil {
			t.Fatal(err)
		}
		rings := h.aliveRings()
		for _, nd := range h.nodes[1:] {
			target := nd.Name()
			if h.suppressed[target] {
				continue
			}
			labels := strings.Split(target, ".")
			for pick := range labels {
				parent := "."
				if pick+1 < len(labels) {
					parent = strings.Join(labels[pick+1:], ".")
				}
				for _, e := range rings[parent] {
					q := liveQuery{target: target, entry: e.Name(), entryAddr: e.Addr(), depth: h.depth[target]}
					qr, _, err := h.ask(ctx, &q)
					if err == nil && !qr.Found {
						err = errors.New(qr.Reason)
					}
					if err == nil {
						err = checkLive(q, qr, h.suppressed, false)
					}
					if err != nil {
						t.Fatalf("hierarchy %d (suppressed %s): query for %s from %s: %v",
							i, strings.Join(h.victims, " "), target, e.Name(), err)
					}
				}
			}
		}
	}
}

func TestCheckLiveRootEntryTakesDepthHops(t *testing.T) {
	q := liveQuery{target: "n2-1.n1-0", entry: ".", depth: 2, fromRoot: true}
	qr := wire.QueryResult{Found: true, Answer: answerFor(q.target), Hops: 2, Path: []string{".", "n1-0", q.target}}
	if err := checkLive(q, qr, nil, true); err != nil {
		t.Fatalf("top-down answer rejected: %v", err)
	}
	detour := wire.QueryResult{Found: true, Answer: answerFor(q.target), Hops: 3, Path: []string{".", "n1-1", "n1-0", q.target}}
	if err := checkLive(q, detour, nil, true); err == nil {
		t.Fatal("a detour in a healthy hierarchy was accepted")
	}
	if err := checkLive(q, detour, nil, false); err != nil {
		t.Fatalf("a detour under attack was rejected: %v", err)
	}
}

func TestCheckSimRejectsCorruptOutcomes(t *testing.T) {
	cfg := simFig9(true)
	st, err := buildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildSystem(cfg, st, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(9)
	good, err := in.sys.QueryNode(in.d, core.QueryOptions{Rng: rng, TracePath: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSim(good, in.d, in.sys.Alive); err != nil {
		t.Fatalf("a real outcome fails the oracle: %v", err)
	}
	corrupt := map[string]func(r *core.QueryResult){
		"missed delivery":     func(r *core.QueryResult) { r.Outcome = core.QueryFailed },
		"hop kinds disagree":  func(r *core.QueryResult) { r.OverlayHops++ },
		"path ends elsewhere": func(r *core.QueryResult) { r.Path[len(r.Path)-1] = in.d.Parent() },
		"path visits T":       func(r *core.QueryResult) { r.Path[1] = in.t },
		"path too short":      func(r *core.QueryResult) { r.Path = r.Path[1:] },
	}
	for name, f := range corrupt {
		r := good
		r.Path = append([]*hierarchy.Node(nil), good.Path...)
		f(&r)
		if err := checkSim(r, in.d, in.sys.Alive); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckSimHops(t *testing.T) {
	for _, mean := range []float64{7.0, 11.2} {
		if err := checkSimHops(mean, 7.8, 10.7); err == nil {
			t.Errorf("mean %.1f hops accepted", mean)
		}
	}
	if err := checkSimHops(9.4, 7.8, 10.7); err != nil {
		t.Error(err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the command in step: the same
// workloads and metrics, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, command has %s", got, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
