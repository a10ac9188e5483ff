package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// Process ids in a merged trace: the remote client's wall-clock timeline and
// the server's virtual-clock timeline render as two processes in one view.
const (
	mergedClientPid = 1
	mergedServerPid = 2
	clientTid       = 1
)

// chromeFlow is a flow event ("s" start / "f" finish) linking two slices
// across processes; viewers draw an arrow between the enclosing slices.
type chromeFlow struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	ID   uint64  `json:"id"`
	BP   string  `json:"bp,omitempty"`
}

// WriteMergedChromeTrace renders the client's wall-clock spans (pid 1) and
// the server tracer's virtual-clock spans (pid 2) into one Chrome trace.
// Both timelines are shifted to start at zero — the two clocks share no
// epoch, so only the causal links are meaningful across processes. Every
// server root span carrying a trace id propagated from a client span gets a
// flow arrow from that span, rendering one causally-connected timeline for
// each remote op.
func WriteMergedChromeTrace(w io.Writer, wall *WallTracer, srv *Tracer) error {
	wallSpans := wall.Finished()
	sort.Slice(wallSpans, func(i, j int) bool {
		if wallSpans[i].startNs != wallSpans[j].startNs {
			return wallSpans[i].startNs < wallSpans[j].startNs
		}
		return wallSpans[i].id < wallSpans[j].id
	})
	srvSpans := srv.sortedDone()

	var clientT0 int64
	if len(wallSpans) > 0 {
		clientT0 = wallSpans[0].startNs
	}
	var serverT0 int64
	if len(srvSpans) > 0 {
		serverT0 = int64(srvSpans[0].start)
	}

	var events []any
	events = append(events,
		chromeMeta{Name: "process_name", Ph: "M", Pid: mergedClientPid, Tid: 0,
			Args: map[string]any{"name": "client (wall clock)"}},
		chromeMeta{Name: "thread_name", Ph: "M", Pid: mergedClientPid, Tid: clientTid,
			Args: map[string]any{"name": "remote client"}},
		chromeMeta{Name: "process_name", Ph: "M", Pid: mergedServerPid, Tid: 0,
			Args: map[string]any{"name": "kvcsd-server (virtual clock)"}},
	)
	events = srv.appendThreadNames(events, mergedServerPid)

	// byTrace locates the client span that originated each propagated trace
	// id, so server roots can be linked back to their cause.
	byTrace := make(map[uint64]*WallSpan, len(wallSpans))
	for _, s := range wallSpans {
		byTrace[s.traceID] = s
	}

	for _, s := range wallSpans {
		args := map[string]any{"trace_id": s.traceID, "span_id": s.id}
		for _, a := range s.attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: s.name,
			Cat:  "remote",
			Ph:   "X",
			Ts:   usec(s.startNs - clientT0),
			Dur:  usec(s.endNs - s.startNs),
			Pid:  mergedClientPid,
			Tid:  clientTid,
			Args: args,
		})
	}

	for _, s := range srvSpans {
		events = append(events, spanEvent(s, mergedServerPid, serverT0))
		// A server root whose remote parent is a known client span gets a
		// flow arrow client->server carrying the shared trace id.
		if s == s.root && s.remoteParent != 0 {
			if c, ok := byTrace[s.traceID]; ok && c.id == s.remoteParent {
				events = append(events,
					chromeFlow{Name: "rpc", Cat: "remote", Ph: "s", ID: s.traceID,
						Ts: usec(c.startNs - clientT0), Pid: mergedClientPid, Tid: clientTid},
					chromeFlow{Name: "rpc", Cat: "remote", Ph: "f", BP: "e", ID: s.traceID,
						Ts: usec(int64(s.start) - serverT0), Pid: mergedServerPid, Tid: s.tid},
				)
			}
		}
	}

	return writeTraceEvents(w, events)
}

// writeTraceEvents serializes a traceEvents array one event per line.
func writeTraceEvents(w io.Writer, events []any) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	for i, ev := range events {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
