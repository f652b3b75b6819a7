package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent is the ID of the span that caused this one (0 for
// a request's root). Times are nanoseconds since the run's epoch.
type span struct {
	Section string `json:"section"` // "served" or the replay pass, "P0".."P4"
	Trace   uint64 `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// spanBuf is one goroutine's in-memory span log. Recording is an
// append; nothing is written until the run ends. limit bounds memory:
// past it spans are dropped (and counted), which the file records.
type spanBuf struct {
	epoch   time.Time
	section string
	limit   int
	spans   []span
	dropped int
}

func newSpanBuf(epoch time.Time, section string, limit int) *spanBuf {
	return &spanBuf{epoch: epoch, section: section, limit: limit}
}

func (b *spanBuf) add(trace uint64, id, parent int, name string, start, end time.Time) {
	if b == nil {
		return
	}
	if len(b.spans) >= b.limit {
		b.dropped++
		return
	}
	b.spans = append(b.spans, span{b.section, trace, id, parent, name,
		int64(start.Sub(b.epoch)), int64(end.Sub(b.epoch))})
}

// traceFile is what bench/out/trace_<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Dropped  int    `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

// spanFileLimit caps the spans of one buffer that reach the file, so
// a span file stays a few MB however long the run was.
const spanFileLimit = 4000

func writeTrace(path, workload string, seed uint64, bufs []*spanBuf) error {
	tf := traceFile{Workload: workload, Seed: seed}
	for _, b := range bufs {
		if b == nil {
			continue
		}
		keep := b.spans
		if len(keep) > spanFileLimit {
			tf.Dropped += len(keep) - spanFileLimit
			keep = keep[:spanFileLimit]
		}
		tf.Dropped += b.dropped
		tf.Spans = append(tf.Spans, keep...)
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
