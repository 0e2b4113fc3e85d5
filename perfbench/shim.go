package main

import (
	"context"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// layer names a transport decorator a shim sits directly above.
type layer int

const (
	layerRetry layer = iota
	layerTraced
	layerInstrument
	layerBase
	numLayers
)

// spanSums accumulates span time per layer boundary. call[l] is the time
// spent in Call of the shim above layer l, handle[l] the time spent in the
// handler that shim hands down to layer l's Listen.
type spanSums struct {
	call       [numLayers]atomic.Int64
	handle     [numLayers]atomic.Int64
	clientCall atomic.Int64 // outermost Call spans issued by the client stack
	calls      atomic.Int64 // logical calls (outermost shim), client and nodes
	failed     atomic.Int64 // logical calls that returned an error
	spans      atomic.Int64 // spans recorded, for the shim overhead estimate
}

// sumsSnap is a plain copy of spanSums, taken between slices.
type sumsSnap struct {
	call, handle                     [numLayers]int64
	clientCall, calls, failed, spans int64
}

func (s *spanSums) snapshot() sumsSnap {
	var o sumsSnap
	for l := range s.call {
		o.call[l] = s.call[l].Load()
		o.handle[l] = s.handle[l].Load()
	}
	o.clientCall, o.calls = s.clientCall.Load(), s.calls.Load()
	o.failed, o.spans = s.failed.Load(), s.spans.Load()
	return o
}

func (s sumsSnap) sub(o sumsSnap) sumsSnap {
	for l := range s.call {
		s.call[l] -= o.call[l]
		s.handle[l] -= o.handle[l]
	}
	s.clientCall -= o.clientCall
	s.calls -= o.calls
	s.failed -= o.failed
	s.spans -= o.spans
	return s
}

func (s *sumsSnap) add(o sumsSnap) {
	for l := range s.call {
		s.call[l] += o.call[l]
		s.handle[l] += o.handle[l]
	}
	s.clientCall += o.clientCall
	s.calls += o.calls
	s.failed += o.failed
	s.spans += o.spans
}

// selfTimes turns the sums into per-layer self times. A layer's self time
// is its span minus the inner span it covers, on both the calling and the
// serving side; the base transport's self time is its call time minus the
// remote handler's time; the node's self time is the handler time minus
// the calls it issued. By construction they sum to clientCall.
func (s sumsSnap) selfTimes() (self [numLayers]time.Duration, node time.Duration) {
	for l := layerRetry; l < layerBase; l++ {
		self[l] = time.Duration(s.call[l] - s.call[l+1] + s.handle[l+1] - s.handle[l])
	}
	self[layerBase] = time.Duration(s.call[layerBase] - s.handle[layerBase])
	node = time.Duration(s.handle[layerRetry] - (s.call[layerRetry] - s.clientCall))
	return self, node
}

// maintKey marks the context of a maintenance round, so its calls (and,
// on in-memory transports, the handlers they reach) are kept apart from
// query spans.
type maintKey struct{}

// recorder collects the spans of every shim of one hierarchy.
type recorder struct {
	on           atomic.Bool
	query, maint spanSums
}

func (r *recorder) sums(ctx context.Context) *spanSums {
	if ctx.Value(maintKey{}) != nil {
		return &r.maint
	}
	return &r.query
}

// shim times the calls into, and the handlers served by, the layer below
// it. It exposes Underlying so the node's decorator-chain walk still sees
// the real layers.
type shim struct {
	inner  transport.Transport
	l      layer
	client bool
	rec    *recorder
}

func (s *shim) Underlying() transport.Transport { return s.inner }

func (s *shim) Call(ctx context.Context, addr string, req wire.Message) (wire.Message, error) {
	if !s.rec.on.Load() {
		return s.inner.Call(ctx, addr, req)
	}
	sums := s.rec.sums(ctx)
	start := time.Now()
	resp, err := s.inner.Call(ctx, addr, req)
	d := int64(time.Since(start))
	sums.call[s.l].Add(d)
	sums.spans.Add(1)
	if s.l == layerRetry {
		sums.calls.Add(1)
		if err != nil {
			sums.failed.Add(1)
		}
		if s.client {
			sums.clientCall.Add(d)
		}
	}
	return resp, err
}

func (s *shim) Listen(addr string, h transport.Handler) (io.Closer, error) {
	return s.inner.Listen(addr, func(ctx context.Context, req wire.Message) (wire.Message, error) {
		if !s.rec.on.Load() {
			return h(ctx, req)
		}
		sums := s.rec.sums(ctx)
		start := time.Now()
		resp, err := h(ctx, req)
		sums.handle[s.l].Add(int64(time.Since(start)))
		sums.spans.Add(1)
		return resp, err
	})
}

// noopTransport answers every call at once; it isolates the shim's own
// cost.
type noopTransport struct{}

func (noopTransport) Listen(string, transport.Handler) (io.Closer, error) { return nil, nil }
func (noopTransport) Call(context.Context, string, wire.Message) (wire.Message, error) {
	return wire.Message{}, nil
}

// shimCost measures the ns one recorded span adds: the same calls through
// a shim that records and through one that does not, median of 5 rounds.
func shimCost(n int) float64 {
	ctx := context.Background()
	rec := &recorder{}
	s := &shim{inner: noopTransport{}, l: layerInstrument, rec: rec}
	req := wire.Message{Type: wire.TypeProbe}
	timeCalls := func() time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			_, _ = s.Call(ctx, "a", req)
		}
		return time.Since(start)
	}
	var costs []float64
	for round := 0; round < 5; round++ {
		rec.on.Store(false)
		off := timeCalls()
		rec.on.Store(true)
		on := timeCalls()
		costs = append(costs, float64((on-off).Nanoseconds())/float64(n))
	}
	return max(0, median(costs))
}
