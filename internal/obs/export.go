package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one Chrome trace-event ("X" = complete event). Timestamps
// and durations are microseconds; Perfetto and chrome://tracing nest events
// sharing a tid by time containment, which matches the span tree because
// children never outlive their parents.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeMeta is a metadata event naming a thread (track).
type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

const tracePid = 1 // one simulated system per trace

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace renders every finished span as Chrome trace-event JSON
// ({"traceEvents": [...]}), loadable in Perfetto or chrome://tracing. Events
// are sorted by start time then span id, so output is deterministic.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	events := t.appendThreadNames(nil, tracePid)
	for _, s := range t.sortedDone() {
		events = append(events, spanEvent(s, tracePid, 0))
	}
	return writeTraceEvents(w, events)
}

// sortedDone returns the finished spans ordered by start time then span id;
// nil for a nil tracer.
func (t *Tracer) sortedDone() []*Span {
	if t == nil {
		return nil
	}
	spans := append([]*Span(nil), t.done...)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].id < spans[j].id
	})
	return spans
}

// appendThreadNames appends one thread_name metadata event per track on
// process pid, in tid order.
func (t *Tracer) appendThreadNames(events []any, pid int) []any {
	if t == nil {
		return events
	}
	tids := make([]int, 0, len(t.tracks))
	for tid := range t.tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		events = append(events, chromeMeta{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": t.tracks[tid]},
		})
	}
	return events
}

// spanEvent renders one finished span as a complete event on process pid,
// its start shifted back by t0 nanoseconds.
func spanEvent(s *Span, pid int, t0 int64) chromeEvent {
	ev := chromeEvent{
		Name: s.name,
		Cat:  spanCat(s),
		Ph:   "X",
		Ts:   usec(int64(s.start) - t0),
		Dur:  usec(int64(s.end - s.start)),
		Pid:  pid,
		Tid:  s.tid,
	}
	if args := spanArgs(s); len(args) > 0 {
		ev.Args = args
	}
	return ev
}

func spanCat(s *Span) string {
	switch {
	case s == s.root:
		return "cmd"
	case s.stage != "":
		return s.stage
	default:
		return "span"
	}
}

// spanArgs builds the args payload: annotations plus, for root spans, the
// per-stage latency breakdown in nanoseconds and (when remote-caused) the
// distributed-trace identity.
func spanArgs(s *Span) map[string]any {
	args := make(map[string]any, len(s.attrs)+len(s.stages))
	for _, a := range s.attrs {
		args[a.Key] = a.Value
	}
	if s == s.root {
		for stage, d := range s.stages {
			args["stage_"+stage+"_ns"] = int64(d)
		}
		args["total_ns"] = int64(s.end - s.start)
		if s.traceID != 0 {
			args["trace_id"] = s.traceID
		}
		if s.remoteParent != 0 {
			args["remote_parent"] = s.remoteParent
		}
	}
	return args
}

// jsonlSpan is the JSONL stream record for one finished span.
type jsonlSpan struct {
	ID           uint64           `json:"id"`
	Parent       uint64           `json:"parent,omitempty"`
	TraceID      uint64           `json:"trace_id,omitempty"`
	RemoteParent uint64           `json:"remote_parent,omitempty"`
	Name         string           `json:"name"`
	Stage        string           `json:"stage,omitempty"`
	Op           string           `json:"op,omitempty"`
	Tid          int              `json:"tid"`
	Start        int64            `json:"start_ns"`
	End          int64            `json:"end_ns"`
	Attrs        map[string]int64 `json:"attrs,omitempty"`
	Stages       map[string]int64 `json:"stages_ns,omitempty"`
}

// WriteJSONL streams every finished span as one JSON object per line, in
// span end order — the processing-friendly companion to the Chrome export.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	for _, s := range t.done {
		rec := jsonlSpan{
			ID:    s.id,
			Name:  s.name,
			Stage: s.stage,
			Tid:   s.tid,
			Start: int64(s.start),
			End:   int64(s.end),
		}
		if s.parent != nil {
			rec.Parent = s.parent.id
		}
		if s == s.root {
			rec.Op = s.op
			rec.TraceID = s.traceID
			rec.RemoteParent = s.remoteParent
			rec.Stages = make(map[string]int64, len(s.stages))
			for stage, d := range s.stages {
				rec.Stages[stage] = int64(d)
			}
		}
		if len(s.attrs) > 0 {
			rec.Attrs = make(map[string]int64, len(s.attrs))
			for _, a := range s.attrs {
				rec.Attrs[a.Key] = a.Value
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}
