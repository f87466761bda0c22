package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"collabscope/internal/obs"
)

// epoch is the benchmark's one clock: every span start and end, and every
// open-loop due time, is nanoseconds since process start.
var epoch = obs.NewStopwatch()

func now() int64 { return int64(epoch.Elapsed()) }

// span is one timed call into a layer. Spans are recorded by the benchmark
// around its calls into the program, never inside the program, and make
// one tree per trace (a run, a round or a request).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for the trace's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced path: call runs the function and records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  int64
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call runs f inside a span and hands f the span's ID, so f can parent
// child spans on it. With alloc, the bytes allocated during f are read from
// runtime.MemStats before and after, outside the timed interval.
func (t *tracer) call(trace, parent int64, name string, alloc bool, f func(id int64) error) error {
	if t == nil {
		return f(0)
	}
	id := t.newID()
	var before runtime.MemStats
	if alloc {
		runtime.ReadMemStats(&before)
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name, Start: now()}
	err := f(id)
	s.End = now()
	if alloc {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.Alloc = after.TotalAlloc - before.TotalAlloc
	}
	t.add(s)
	return err
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that the union of its children's intervals covers.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerTotal is the summed self time (ns) and allocated bytes of the spans
// of one name within one trace.
type layerTotal struct {
	self  int64
	alloc uint64
}

func layerTotals(spans []span) map[int64]map[string]layerTotal {
	self := selfTimes(spans)
	out := map[int64]map[string]layerTotal{}
	for _, s := range spans {
		m := out[s.Trace]
		if m == nil {
			m = map[string]layerTotal{}
			out[s.Trace] = m
		}
		lt := m[s.Name]
		lt.self += self[s.ID]
		lt.alloc += s.Alloc
		m[s.Name] = lt
	}
	return out
}

// layerMedians returns, per span name, the median over traces of the
// per-trace self time (ms) and allocation (MB), and each name's share of
// the summed self time of all spans.
func layerMedians(spans []span) (selfMS, allocMB, share map[string]float64) {
	totals := layerTotals(spans)
	selfs, allocs := map[string][]float64{}, map[string][]float64{}
	sum := map[string]float64{}
	var all float64
	for _, byName := range totals {
		for name, lt := range byName {
			selfs[name] = append(selfs[name], float64(lt.self)/1e6)
			allocs[name] = append(allocs[name], float64(lt.alloc)/(1<<20))
			sum[name] += float64(lt.self)
			all += float64(lt.self)
		}
	}
	selfMS, allocMB, share = map[string]float64{}, map[string]float64{}, map[string]float64{}
	for name := range selfs {
		selfMS[name] = median(selfs[name])
		allocMB[name] = median(allocs[name])
		if all > 0 {
			share[name] = sum[name] / all
		}
	}
	return selfMS, allocMB, share
}
