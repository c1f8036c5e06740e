package session

import (
	"sync/atomic"

	"pmv/internal/obs"
	"pmv/internal/wire"
)

// Counters is the session plane's counter block, embedded in each
// daemon's Metrics. All fields are updated with atomics from session
// goroutines.
type Counters struct {
	SessionsTotal  atomic.Int64
	SessionsActive atomic.Int64
	Errors         atomic.Int64 // per-request failures answered with MsgError

	// Network-plane failure modes, one counter each so a chaos run can
	// audit exactly how its injected faults were absorbed.
	ConnRejected  atomic.Int64 // connections refused by the MaxConns cap
	IdleReaped    atomic.Int64 // sessions closed for idling past IdleTimeout
	ReadTimeouts  atomic.Int64 // frames that stalled mid-arrival (slowloris)
	WriteTimeouts atomic.Int64 // responses abandoned to a peer that stopped reading
	CorruptFrames atomic.Int64 // sessions dropped on checksum/framing violations
	SessionResets atomic.Int64 // sessions torn down by abrupt transport errors

	// Per-request cost accounting (the resource bill, not just the
	// count): rows streamed to clients, wire bytes written for them, and
	// heap bytes allocated by traced requests. CostAllocs only advances
	// for traced requests (sampling the allocator is not free); the
	// others are always on.
	CostRows      atomic.Int64
	CostBytes     atomic.Int64
	CostAllocs    atomic.Int64
	TracesSampled atomic.Int64
}

// Fill copies the session-plane counters into a stats reply.
func (c *Counters) Fill(st *wire.ServerStats) {
	st.SessionsTotal = c.SessionsTotal.Load()
	st.SessionsActive = c.SessionsActive.Load()
	st.Errors = c.Errors.Load()
	st.ConnRejected = c.ConnRejected.Load()
	st.IdleReaped = c.IdleReaped.Load()
	st.ReadTimeouts = c.ReadTimeouts.Load()
	st.WriteTimeouts = c.WriteTimeouts.Load()
	st.CorruptFrames = c.CorruptFrames.Load()
	st.SessionResets = c.SessionResets.Load()
	st.CostRows = c.CostRows.Load()
	st.CostBytes = c.CostBytes.Load()
	st.CostAllocs = c.CostAllocs.Load()
	st.TracesSampled = c.TracesSampled.Load()
}

// WritePrometheus renders the failure-mode families under the daemon's
// metric prefix ("pmvd", "pmvrouter"). The session, error and
// corrupt-frame families stay with the daemons, whose help texts for
// them differ.
func (c *Counters) WritePrometheus(p *obs.PromWriter, prefix string) {
	p.Counter(prefix+"_conn_rejected_total", "Connections refused by the MaxConns cap.", float64(c.ConnRejected.Load()))
	p.Counter(prefix+"_idle_reaped_total", "Sessions closed for idling past IdleTimeout.", float64(c.IdleReaped.Load()))
	p.Counter(prefix+"_read_timeouts_total", "Request frames that stalled mid-arrival.", float64(c.ReadTimeouts.Load()))
	p.Counter(prefix+"_write_timeouts_total", "Responses abandoned to a peer that stopped reading.", float64(c.WriteTimeouts.Load()))
	p.Counter(prefix+"_session_resets_total", "Sessions torn down by abrupt transport errors.", float64(c.SessionResets.Load()))
}
