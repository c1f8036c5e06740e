package main

import (
	"encoding/json"
	"os"
)

// Span names. The root is the timed call; its descendants are laid
// out from the report the call returned, so each layer's self time is
// its span minus its children and the self times of one query sum to
// its root.
const (
	spanQuery    = "query"
	spanSession  = "server.session"
	spanO1O2     = "core.o1o2"
	spanO3       = "core.o3"
	spanOverhead = "core.overhead"
	spanScatter  = "cluster.scatter"
	spanExec     = "cluster.exec"
)

// span is one recorded interval. Start and End are nanoseconds since
// the traced pass's readers began; Parent names the enclosing span of the same
// query ("" for the root).
type span struct {
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
}

// querySpans lays out one query's spans. The reader timed the root;
// the report's phase durations were measured inside that interval by
// the layer that reported them, so the children are placed back to
// back from the root's start and clipped to it.
//
//	embedded: query ⊃ core.o1o2, core.o3 ⊃ core.overhead
//	served:   query ⊃ server.session ⊃ core.o1o2, core.o3 ⊃ core.overhead
//	routed:   query ⊃ server.session ⊃ cluster.scatter, cluster.exec
//
// From outside, a served call and its session are one interval, so the
// root's self time is zero there and the session's self time is what
// the reported phases leave unexplained: session loop, admission,
// wire and loopback.
func querySpans(dst []span, id int64, topo topology, q *qsample) []span {
	s, e := int64(q.Done-q.Total), int64(q.Done)
	clip := func(x int64) int64 { return min(max(x, s), e) }
	dst = append(dst, span{Query: id, Name: spanQuery, Start: s, End: e})
	parent := spanQuery
	if topo != embedded {
		dst = append(dst, span{Query: id, Name: spanSession, Start: s, End: e, Parent: spanQuery})
		parent = spanSession
	}
	first, second := spanO1O2, spanO3
	if topo == routed {
		first, second = spanScatter, spanExec
	}
	mid := clip(s + int64(q.Partial))
	end := clip(mid + int64(q.Exec))
	dst = append(dst,
		span{Query: id, Name: first, Start: s, End: mid, Parent: parent},
		span{Query: id, Name: second, Start: mid, End: end, Parent: parent})
	if topo != routed {
		// Overhead is O1+O2 plus O3's per-tuple DS checks and refill; the
		// second part is spent inside O3.
		inO3 := max(int64(q.Extra-q.Partial), 0)
		dst = append(dst, span{Query: id, Name: spanOverhead, Start: mid, End: min(mid+inO3, end), Parent: second})
	}
	return dst
}

// selfTimes returns, per span name, the summed self time over all
// queries — each span's duration minus its children's — and the number
// of root spans.
func selfTimes(spans []span) (self map[string]int64, roots int64) {
	type key struct {
		query int64
		name  string
	}
	self = make(map[string]int64)
	children := make(map[key]int64)
	for _, sp := range spans {
		if sp.Parent != "" {
			children[key{sp.Query, sp.Parent}] += sp.End - sp.Start
		}
	}
	for _, sp := range spans {
		self[sp.Name] += sp.End - sp.Start - children[key{sp.Query, sp.Name}]
		if sp.Parent == "" {
			roots++
		}
	}
	return self, roots
}

// rootTime is the summed duration of the root spans.
func rootTime(spans []span) int64 {
	var sum int64
	for _, sp := range spans {
		if sp.Parent == "" {
			sum += sp.End - sp.Start
		}
	}
	return sum
}

// traceMetric maps a span name to its per-layer metric.
var traceMetric = map[string]string{
	spanQuery:    "trace.query_self_us",
	spanSession:  "trace.server_session_self_us",
	spanO1O2:     "trace.core_o1o2_self_us",
	spanO3:       "trace.core_o3_self_us",
	spanOverhead: "trace.core_overhead_self_us",
	spanScatter:  "trace.cluster_scatter_self_us",
	spanExec:     "trace.cluster_exec_self_us",
}

func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
