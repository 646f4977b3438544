package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one run
// share the run's trace id (written once in the file header); Parent links
// a call to the phase (setup, solve) that caused it. Rank -1 is the
// benchmark's own goroutine.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Rank    int     `json:"rank"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing; ids are still handed out so call sites need no
// branches.
type tracer struct {
	on    bool
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) newID() int { return int(t.ids.Add(1)) }

func (t *tracer) add(id, parent, rank int, name string, start, end time.Time) {
	if !t.on {
		return
	}
	sp := span{
		ID: id, Parent: parent, Rank: rank, Name: name,
		StartUs: float64(start.Sub(t.epoch).Nanoseconds()) / 1e3,
		EndUs:   float64(end.Sub(t.epoch).Nanoseconds()) / 1e3,
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// durations returns the durations in seconds of every span with the given
// name on the given rank, in start order.
func (t *tracer) durations(name string, rank int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name && sp.Rank == rank {
			out = append(out, (sp.EndUs-sp.StartUs)/1e6)
		}
	}
	return out
}

// write stores the spans, sorted by start time, as one JSON document.
func (t *tracer) write(path, traceID string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUs < spans[j].StartUs })
	data, err := json.Marshal(struct {
		TraceID string `json:"trace_id"`
		Epoch   string `json:"epoch"`
		Spans   []span `json:"spans"`
	}{traceID, t.epoch.UTC().Format(time.RFC3339Nano), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
