package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanLog keeps the benchmark's spans in memory until the run ends. The
// spans wrap the benchmark's own calls into the program — workload,
// pass, trial, and the trial's set-up and serving halves where an
// OnCluster hook marks the boundary — so recording them costs nothing
// inside the simulator. A nil log records nothing.
type spanLog struct {
	origin time.Time
	spans  []span
}

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Trial   string `json:"trial,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records one span and returns its id (ids start at 1; parent 0 is
// the root).
func (l *spanLog) add(parent int, name, trial string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Trial: trial,
		StartNS: start.Sub(l.origin).Nanoseconds(), EndNS: end.Sub(l.origin).Nanoseconds()})
	return id
}

// finish sets the end of a span added before its end was known.
func (l *spanLog) finish(id int, end time.Time) {
	if l != nil && id > 0 {
		l.spans[id-1].EndNS = end.Sub(l.origin).Nanoseconds()
	}
}

// addPass records one pass and its trials.
func (l *spanLog) addPass(parent int, p passResult, ids []string) {
	if l == nil {
		return
	}
	pid := l.add(parent, "pass", "", p.start, p.start.Add(p.wall))
	for i, rec := range p.recs {
		tid := l.add(pid, "trial", ids[i], rec.start, rec.end)
		if !rec.cluster.IsZero() {
			l.add(tid, "setup", ids[i], rec.start, rec.cluster)
			l.add(tid, "serve", ids[i], rec.cluster, rec.end)
		}
	}
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
