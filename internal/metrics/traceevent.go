package metrics

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// traceEventFlush is how much formatted JSON an EventWriter buffers
// before writing it out.
const traceEventFlush = 1 << 16

// EventWriter streams Chrome trace_event JSON in the object form
// ({"traceEvents":[...],"displayTimeUnit":"ns"}), loadable in
// chrome://tracing and Perfetto. It is the one exporter behind the step
// traces and the request flight ring: events are formatted into a buffer
// that is written out whenever it reaches 64 KiB, and the first write
// error stops all further output and is returned by Close.
type EventWriter struct {
	w   io.Writer
	b   strings.Builder
	n   int // events written so far
	err error
}

// NewEventWriter starts a trace_event document on w.
func NewEventWriter(w io.Writer) *EventWriter {
	e := &EventWriter{w: w}
	e.b.WriteString("{\"traceEvents\":[")
	return e
}

// Complete appends one complete ("X") event on timeline row tid of
// process 1. ts is the start offset from the trace's epoch, dur the
// event's length, and args the body of the event's args object: a
// comma-separated list of JSON members, without braces.
func (e *EventWriter) Complete(name, cat string, tid int64, ts, dur time.Duration, args string) {
	if e.n > 0 {
		e.b.WriteByte(',')
	}
	e.n++
	fmt.Fprintf(&e.b, `{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{%s}}`,
		name, cat, float64(ts.Nanoseconds())/1e3, float64(dur.Nanoseconds())/1e3, tid, args)
	if e.b.Len() >= traceEventFlush {
		e.flush()
	}
}

// Close ends the document, writes out what is buffered, and returns the
// first write error.
func (e *EventWriter) Close() error {
	e.b.WriteString("],\"displayTimeUnit\":\"ns\"}\n")
	e.flush()
	return e.err
}

func (e *EventWriter) flush() {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, e.b.String())
	}
	e.b.Reset()
}
