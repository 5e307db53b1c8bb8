package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark makes into a layer of the program.
// Spans of one request or solve share Req; Parent is the ID of the span
// that caused this one (0 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced run: every method is a no-op that returns 0.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// on reports whether spans are being recorded.
func (r *Recorder) on() bool { return r != nil }

// now returns recorder time (0 when untraced).
func (r *Recorder) now() int64 { return r.at(time.Now()) }

// at converts a wall-clock instant to recorder time.
func (r *Recorder) at(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.t0))
}

// Begin opens a span starting now and returns its ID.
func (r *Recorder) Begin(name string, parent int, req int64) int {
	if r == nil {
		return 0
	}
	return r.add(name, parent, req, r.now(), -1)
}

// End closes a span opened by Begin.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// Add records a span whose interval is already known: a duration the
// program reported (a setup phase, a kernel-class total, a server-side
// time) placed inside its parent.
func (r *Recorder) Add(name string, parent int, req int64, start, end int64) int {
	if r == nil {
		return 0
	}
	return r.add(name, parent, req, start, end)
}

func (r *Recorder) add(name string, parent int, req int64, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// Spans returns a copy of the closed spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as one JSON array.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once; parts of a child outside the parent do not count).
func selfTimes(spans []Span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns the length of [lo, hi] covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// ledger summarises a traced run: the mean self time per root span of
// every span name, and the share of root time no named layer covers.
type ledger struct {
	roots       int
	selfPerRoot map[string]float64 // ns of self time per root, by span name
	residualPct float64            // root self time ÷ root duration, in %
}

// newLedger builds the ledger for the spans whose roots are named root.
func newLedger(spans []Span, root string) ledger {
	self := selfTimes(spans)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s Span) Span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	l := ledger{selfPerRoot: map[string]float64{}}
	var rootDur, rootSelf int64
	for _, s := range spans {
		if rootOf(s).Name != root {
			continue
		}
		if s.Parent == 0 {
			l.roots++
			rootDur += s.End - s.Start
			rootSelf += self[s.ID]
			continue
		}
		l.selfPerRoot[s.Name] += float64(self[s.ID])
	}
	if l.roots == 0 {
		return l
	}
	for k, v := range l.selfPerRoot {
		l.selfPerRoot[k] = v / float64(l.roots)
	}
	if rootDur > 0 {
		l.residualPct = 100 * float64(rootSelf) / float64(rootDur)
	}
	return l
}

// ms returns the mean self time per root of the named span, in ms.
func (l ledger) ms(name string) float64 { return l.selfPerRoot[name] / 1e6 }
