// Server-side observability: per-RPC-kind latency histograms, byte
// counters, live-state gauges, slow-op logging, and the Stats RPC that
// exports all of it to clients and the csar CLI.

package server

import (
	"log"
	"time"

	"csar/internal/obs"
	"csar/internal/wire"
)

// Obs exposes the server's metrics registry, for the daemon's -debug-addr
// HTTP endpoint.
func (s *Server) Obs() *obs.Registry { return s.obs }

// HandleTraced is Handle with the request's operation trace ID. It satisfies
// rpc.TracedHandler: every request is counted, charged its modeled CPU,
// timed into the per-kind histogram, and logged when it exceeds the SlowOp
// threshold — with the trace ID, so a slow server-side request can be
// correlated with the client operation that issued it.
func (s *Server) HandleTraced(req wire.Msg, trace uint64) (wire.Msg, error) {
	s.requests.Add(1)
	if s.opts.Clock.Timed() && s.opts.RequestCPU > 0 {
		s.cpu.AcquireDur(s.opts.RequestCPU)
	}
	s.bytesIn.Add(payloadBytes(req))
	start := time.Now()
	resp, err := s.dispatch(req)
	// Under the performance model, record modeled time (what the paper's
	// figures are about); on a real deployment, wall time.
	var d time.Duration
	if s.opts.Clock.Timed() {
		d = s.opts.Clock.SimSince(start)
	} else {
		d = time.Since(start)
	}
	kind := req.Kind()
	s.rpcHists.Of(kind).Observe(d)
	if err != nil {
		s.obs.Counter("errors").Add(1)
	} else {
		s.bytesOut.Add(payloadBytes(resp))
	}
	if s.opts.SlowOp > 0 && d >= s.opts.SlowOp {
		s.obs.Counter("slow_ops").Add(1)
		log.Printf("csar-iod %d: slow op: %v took %v (trace %016x)", s.idx, kind, d, trace)
	}
	return resp, err
}

// payloadBytes returns the data bytes a message carries, for the bytes_in /
// bytes_out counters (header and framing overhead excluded — the counters
// track the I/O traffic the paper's figures measure, not protocol chatter).
func payloadBytes(m wire.Msg) int64 {
	switch t := m.(type) {
	case *wire.WriteData:
		return int64(len(t.Data))
	case *wire.WriteParity:
		return int64(len(t.Data))
	case *wire.ResolveIntent:
		return int64(len(t.Data))
	case *wire.ReadResp:
		return int64(len(t.Data))
	case *wire.OverflowDumpResp:
		return int64(len(t.Data))
	}
	return 0
}

// registerGauges installs the live-state gauges evaluated at every stats
// snapshot. Each gauge takes its own subsystem lock; none are held together
// (the file list is copied under s.mu before any sf.mu is taken), so the
// established lock order is respected.
func (s *Server) registerGauges() {
	s.obs.RegisterGauge("locks_held", func() int64 {
		var n int64
		for _, sf := range s.fileList() {
			sf.mu.Lock()
			for _, pl := range sf.locks {
				if pl.owner != (acq{}) {
					n++
				}
			}
			sf.mu.Unlock()
		}
		return n
	})
	s.obs.RegisterGauge("intents_live", func() int64 {
		s.imu.Lock()
		defer s.imu.Unlock()
		return int64(len(s.jLive))
	})
	s.obs.RegisterGauge("dirty_log_entries", func() int64 {
		s.dirty.mu.Lock()
		defer s.dirty.mu.Unlock()
		var n int64
		for _, dl := range s.dirty.logs {
			n += int64(len(dl.groups))
		}
		return n
	})
	s.obs.RegisterGauge("files_open", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.files))
	})
}

// fileList snapshots the server's file records under s.mu, so callers can
// take each sf.mu afterwards without nesting the two locks.
func (s *Server) fileList() []*serverFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*serverFile, 0, len(s.files))
	for _, sf := range s.files {
		out = append(out, sf)
	}
	return out
}

// handleStats answers the Stats RPC with the server's full observability
// snapshot: registry counters (the intent/lease set among them), evaluated
// gauges, and every per-RPC-kind histogram.
func (s *Server) handleStats() (wire.Msg, error) {
	snap := s.obs.Snapshot()
	resp := &wire.StatsResp{
		Index:    uint16(s.idx),
		Requests: s.requests.Load(),
	}
	for _, kv := range snap.Counters {
		resp.Counters = append(resp.Counters, wire.StatKV{Name: kv.Name, Value: kv.Value})
	}
	for _, kv := range snap.Gauges {
		resp.Gauges = append(resp.Gauges, wire.StatKV{Name: kv.Name, Value: kv.Value})
	}
	for _, h := range snap.Hists {
		resp.Hists = append(resp.Hists, wire.HistDump{
			Name:    h.Name,
			Count:   h.Count,
			Sum:     int64(h.Sum),
			Max:     int64(h.Max),
			Buckets: h.TrimmedBuckets(),
		})
	}
	return resp, nil
}
