package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"kvcsd/internal/obs"
)

// recorder keeps the benchmark's own wall-clock spans — recorded around its
// calls into each layer, never inside the program — in memory until exit. A
// nil *recorder is the disabled recorder.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []bspan
	calls int64 // per-call sampling counter
}

type bspan struct {
	id, parent int
	name       string
	layer      string
	start, end int64 // ns since t0
	virt0      int64 // virtual interval of a sampled in-process call, for
	virt1      int64 // matching the device's command span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name, layer string, parent int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, bspan{id: len(r.spans) + 1, parent: parent, name: name, layer: layer, start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// sample reports whether this call should get its own span: one call in 64.
func (r *recorder) sample() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	return r.calls%64 == 0
}

// setVirt notes the virtual interval an in-process sampled call covered.
func (r *recorder) setVirt(id int, v0, v1 int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].virt0, r.spans[id-1].virt1 = v0, v1
	r.mu.Unlock()
}

// spanSummary is one row of layers.json: total and self time per span name,
// self time being the span minus the part of it its children cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
}

func (r *recorder) summarize() []spanSummary {
	children := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.parent != 0 && s.end > 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	by := map[string]*spanSummary{}
	var order []string
	for _, s := range r.spans {
		if s.end == 0 {
			continue
		}
		row, ok := by[s.name]
		if !ok {
			row = &spanSummary{Name: s.name, Layer: s.layer}
			by[s.name] = row
			order = append(order, s.name)
		}
		iv := children[s.id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, hi int64
		hi = s.start
		for _, c := range iv {
			lo := max(c[0], hi)
			if c[1] > lo {
				covered += c[1] - lo
				hi = c[1]
			}
		}
		row.Count++
		row.TotalUs += float64(s.end-s.start) / 1e3
		row.SelfUs += float64(s.end-s.start-covered) / 1e3
	}
	out := make([]spanSummary, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	return out
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace merges the benchmark's wall spans (pid 1) with the program's own
// virtual-clock spans (pid 2) into one Chrome trace. The program records a
// span for every command of every round; only those belonging to a sampled
// call — linked by the wire trace id on remote workloads, by the exact
// virtual interval in-process — and the background jobs are written, which
// keeps the file to megabytes. The two clocks share no epoch; both start at 0.
func (r *recorder) writeTrace(path string, dev *obs.Tracer, sampledTraces map[uint64]bool) error {
	var events []traceEvent
	depth := map[int]int{}
	for _, s := range r.spans {
		if s.end == 0 {
			continue
		}
		// One track per nesting depth keeps concurrent sampled calls from
		// being drawn as if they nested.
		d := 0
		if s.parent != 0 {
			d = depth[s.parent] + 1
		}
		depth[s.id] = d
		tid := d
		if s.parent != 0 && d >= 3 {
			tid = 3 + s.id%16
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: tid,
		})
	}
	if dev != nil {
		type iv struct{ v0, v1 int64 }
		want := map[iv]bool{}
		for _, s := range r.spans {
			if s.virt1 > 0 {
				want[iv{s.virt0, s.virt1}] = true
			}
		}
		top := func(s *obs.Span) *obs.Span {
			for s.Parent() != nil {
				s = s.Parent()
			}
			return s
		}
		var t0 int64 = -1
		for _, s := range dev.Finished() {
			root := top(s)
			keep := sampledTraces[root.TraceID()] && root.TraceID() != 0
			if !keep {
				keep = want[iv{int64(root.Start()), int64(root.EndTime())}]
			}
			if !keep {
				n := root.Name()
				keep = len(n) < 4 || (n[:4] != "cmd:" && n[:4] != "rpc:")
			}
			if !keep {
				continue
			}
			if t0 < 0 || int64(s.Start()) < t0 {
				t0 = int64(s.Start())
			}
			ev := traceEvent{
				Name: s.Name(), Cat: s.Stage(), Ph: "X",
				Ts: float64(s.Start()), Dur: float64(s.Duration()) / 1e3,
				Pid: 2, Tid: int(root.ID() % 64),
			}
			if s.IsRoot() && s.TraceID() != 0 {
				ev.Args = map[string]any{"trace_id": s.TraceID()}
			}
			events = append(events, ev)
		}
		for i := range events {
			if events[i].Pid == 2 {
				events[i].Ts = (events[i].Ts - float64(t0)) / 1e3
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprint(bw, `{"traceEvents":[`+"\n")
	fmt.Fprint(bw, `{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"benchmark (wall clock)"}},`+"\n")
	fmt.Fprint(bw, `{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"program spans (virtual clock)"}}`)
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		bw.WriteString(",\n")
		bw.Write(b)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
