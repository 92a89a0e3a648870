package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/sss-lab/blocksptrsv"
)

// layers are the program's packages a span can be charged to, in the
// order their self-time shares are reported.
var layers = []string{"sparse", "levelset", "adapt", "kernels", "exec", "block", "plancache", "daemon"}

// span is one timed call into a layer, made from the benchmark's own code
// (or, for "kernels" and the daemon phases, rebuilt from a recorder the
// program already exposes). Op groups the spans of one operation or
// request; Parent is the span that caused this one, 0 for a root.
type span struct {
	ID, Parent, Op int64
	Layer, Name    string
	Start, End     time.Time
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer is the untraced run: every method is a no-op, so the timed
// code paths are the same with tracing on and off apart from the calls
// themselves.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	next    int64
	spans   []span
	max     int
	dropped int64
}

func newTracer(max int) *tracer { return &tracer{epoch: time.Now(), max: max} }

// id reserves a span id, so children can name a parent recorded later.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved id (0 reserves one).
func (t *tracer) add(id, parent, op int64, layer, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.max {
		t.dropped++
		return id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: start, End: end})
	return id
}

// selfShares returns each layer's self time — its spans' durations minus
// the parts their child spans cover — as a share of all recorded self
// time.
func (t *tracer) selfShares() map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total := 0.0
	self := make(map[string]float64)
	for _, s := range t.spans {
		d := float64(s.End.Sub(s.Start))
		d -= covered(s, children[s.ID])
		if d < 0 {
			d = 0
		}
		self[s.Layer] += d
		total += d
	}
	if total > 0 {
		for _, l := range layers {
			out[l] = self[l] / total
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	sum := 0.0
	var curLo, curHi time.Time
	open := false
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if !hi.After(lo) {
			continue
		}
		if open && !lo.After(curHi) {
			if hi.After(curHi) {
				curHi = hi
			}
			continue
		}
		if open {
			sum += float64(curHi.Sub(curLo))
		}
		curLo, curHi, open = lo, hi, true
	}
	if open {
		sum += float64(curHi.Sub(curLo))
	}
	return sum
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto): one complete event per span, one row
// per operation, the parent span id in args.
func (t *tracer) writeChrome(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","otherData":{"dropped_spans":`, t.dropped, `},"traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  us(s.Start.Sub(t.epoch)),
			Dur: us(s.End.Sub(s.Start)),
			Pid: 1, Tid: s.Op,
			Args: map[string]any{"span": s.ID, "parent": s.Parent, "layer": s.Layer},
		}); err != nil {
			f.Close()
			return fmt.Errorf("encoding trace event: %w", err)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace file: %w", err)
	}
	return f.Close()
}

// stepLinker attaches the plan steps a TraceRecorder (Options.Trace)
// captured to the benchmark's solve spans, as "kernels" child spans, and
// sums per-kernel wall time and nonzeros over single-RHS solves.
type stepLinker struct {
	rec   *blocksptrsv.TraceRecorder
	epoch time.Time // approximates the recorder's own epoch
	ops   map[int64]linked
}

type linked struct {
	span   int64
	single bool
}

func newStepLinker() *stepLinker {
	epoch := time.Now()
	return &stepLinker{rec: blocksptrsv.NewTraceRecorder(1 << 16), epoch: epoch, ops: map[int64]linked{}}
}

// link maps the recorder's solve id to the benchmark span of that call.
func (sl *stepLinker) link(solveID, span int64, single bool) {
	sl.ops[solveID] = linked{span, single}
}

// kernelCost accumulates one kernel's single-RHS step time and nonzeros.
type kernelCost struct{ ns, nnz float64 }

// emit records a span per retained linked step and adds single-RHS step
// costs to costs, keyed "tri.<kernel>" or "spmv.<kernel>".
func (sl *stepLinker) emit(tr *tracer, costs map[string]*kernelCost) {
	for _, st := range sl.rec.Steps() {
		l, ok := sl.ops[st.Solve]
		if !ok {
			continue
		}
		key := st.Kind + "." + st.Kernel
		start := sl.epoch.Add(st.Start)
		tr.add(0, l.span, l.span, "kernels", key, start, start.Add(st.Duration))
		if l.single {
			c := costs[key]
			if c == nil {
				c = &kernelCost{}
				costs[key] = c
			}
			c.ns += float64(st.Duration)
			c.nnz += float64(st.NNZ)
		}
	}
}
