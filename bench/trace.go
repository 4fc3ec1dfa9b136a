package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"time"
)

// Tracing lives in the benchmark, around the calls into each layer: a span
// is recorded at each layer boundary of a request (name, start, end, the
// span that caused it), spans of one request share its id, and everything
// stays in memory until the workload ends. A layer's self time is its span
// minus the part of that interval its children cover.

// spanName names the layer boundary a span was taken at. Spans carry an
// index into spanNames instead of a string so a buffer of spans holds no
// pointers for the collector to scan.
type spanName uint8

const (
	spanQuery     spanName = iota // one in-process request, root of its stages
	spanNormalize                 // sqlparse.Normalize
	spanPrepare                   // Engine.Prepare
	spanRun                       // PreparedQuery.Run
	spanParse                     // sqlparse.Parse, sibling replay
	spanEval                      // core ModelSet.EvaluateUni, sibling replay
	spanExact                     // exact.Query, sibling replay
	spanAppend                    // Engine.Append / POST /ingest
	spanRequest                   // one HTTP round trip seen by the client
	spanServer                    // the elapsed_us the server reported for it
)

var spanNames = [...]string{
	spanQuery: "query", spanNormalize: "sqlparse.normalize", spanPrepare: "plan.prepare",
	spanRun: "exec.run", spanParse: "sqlparse.parse", spanEval: "core.eval",
	spanExact: "exact.query", spanAppend: "ingest.append", spanRequest: "serve.request",
	spanServer: "serve.engine",
}

// span is one timed interval. ID is unique within its request; Parent is
// the ID of the span that caused it, 0 for a root or a sibling replay.
// Start and End are nanoseconds since the trace epoch.
type span struct {
	Req        uint64
	ID, Parent uint32
	Name       spanName
	Class      uint8 // index into classes (workloads.go)
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// spanBuf is one client's private span buffer: clients never share one, so
// recording takes no lock.
type spanBuf struct {
	epoch time.Time
	spans []span
}

func newSpanBuf(epoch time.Time) *spanBuf {
	return &spanBuf{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

func (b *spanBuf) add(req uint64, id, parent uint32, name spanName, class uint8, start, end time.Time) {
	b.spans = append(b.spans, span{
		Req: req, ID: id, Parent: parent, Name: name, Class: class,
		Start: int64(start.Sub(b.epoch)), End: int64(end.Sub(b.epoch)),
	})
}

// selfTimes returns, aligned with spans, each span's duration minus the
// part of its interval covered by its children (children may overlap each
// other and may stick out of the parent; only the covered part inside the
// parent is subtracted).
func selfTimes(spans []span) []int64 {
	type key struct {
		req uint64
		id  uint32
	}
	children := make(map[key][]int, len(spans)/2)
	for i, s := range spans {
		if s.Parent != 0 {
			k := key{s.Req, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		kids := children[key{s.Req, s.ID}]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// traceHeader is the first line of a trace file: the traced window's
// operation counts and boundary counter deltas.
type traceHeader struct {
	Workload string   `json:"workload"`
	Spans    int      `json:"spans"`
	Queries  int      `json:"queries"`
	Appends  int      `json:"appends"`
	Counters counters `json:"counters"`
}

// writeTrace writes the header and then one JSON object per span to path.
func writeTrace(path string, head traceHeader, spans []span, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	first, err := json.Marshal(head)
	if err != nil {
		f.Close()
		return err
	}
	w.Write(first)
	w.WriteByte('\n')
	line := make([]byte, 0, 192)
	for i, s := range spans {
		line = append(line[:0], `{"req":`...)
		line = strconv.AppendUint(line, s.Req, 10)
		line = append(line, `,"id":`...)
		line = strconv.AppendUint(line, uint64(s.ID), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, uint64(s.Parent), 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, spanNames[s.Name])
		line = append(line, `,"class":`...)
		line = strconv.AppendQuote(line, classes[s.Class].name)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, `,"self_ns":`...)
		line = strconv.AppendInt(line, self[i], 10)
		line = append(line, "}\n"...)
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
