package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/matgen"
)

func TestScheduleSameSeedSameInputs(t *testing.T) {
	a := schedule(7, 75, 20*time.Second, serviceMix, 10)
	b := schedule(7, 75, 20*time.Second, serviceMix, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 75, 20*time.Second, serviceMix, 10)) {
		t.Fatal("different seeds gave the same schedule")
	}
	counts := map[kind]int{}
	var prev time.Duration
	for _, x := range a {
		if x.due < prev || x.due >= 20*time.Second {
			t.Fatalf("due time %v out of order or past the run", x.due)
		}
		if x.mat < 0 || x.mat >= 10 || (x.kind == coldSolve && x.mat != 0 && x.mat != 3) {
			t.Fatalf("%v arrival on hot-set index %d", x.kind, x.mat)
		}
		prev = x.due
		counts[x.kind]++
	}
	// 1500 expected arrivals; one in 20 is cold and one in 20 a delete.
	if n := len(a); n < 1300 || n > 1700 {
		t.Errorf("%d arrivals, want about 1500", n)
	}
	if c, d, n := counts[coldSolve], counts[deleteOld], (len(a)+19)/20; c != n || d < n-1 || d > n {
		t.Errorf("%d cold and %d deletes in %d arrivals, want %d and about %d", c, d, len(a), n, n)
	}

	m := matgen.QuickSuite()[0].Generate()
	x := rhs(rand.New(rand.NewSource(a[0].seed)), m)
	y := rhs(rand.New(rand.NewSource(a[0].seed)), m)
	if !bitwiseEqual(x, y) {
		t.Fatal("same seed gave different right-hand sides")
	}
}

// TestOpenLoopTimesFromDue sends three requests due at once to a server
// that handles one at a time in 20 ms: measured from the due time, the
// second and third are charged their wait for the first.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const service = 20 * time.Millisecond
	sched := []arrival{{due: 0}, {due: 0}, {due: 0}}
	var server sync.Mutex
	var mu sync.Mutex
	var lat []float64
	late := runOpenLoop(time.Now(), sched, func(a arrival, due time.Time) {
		server.Lock()
		time.Sleep(service)
		server.Unlock()
		mu.Lock()
		lat = append(lat, ms(time.Since(due)))
		mu.Unlock()
	})
	if len(late) != 3 || len(lat) != 3 {
		t.Fatalf("got %d dispatches and %d completions, want 3 and 3", len(late), len(lat))
	}
	for _, l := range late {
		if l < 0 || l > 15 {
			t.Errorf("generator lateness %.2f ms, want in [0, 15]", l)
		}
	}
	want := []float64{20, 40, 60}
	got := append([]float64(nil), lat...)
	for i := range got {
		for j := i + 1; j < len(got); j++ {
			if got[j] < got[i] {
				got[i], got[j] = got[j], got[i]
			}
		}
	}
	for i := range want {
		if got[i] < want[i] || got[i] > want[i]+15 {
			t.Errorf("latency %d = %.2f ms, want about %.0f ms", i, got[i], want[i])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // ends past root
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	l := newLedger(spans, "root")
	if l.roots != 1 {
		t.Fatalf("%d roots, want 1", l.roots)
	}
	if math.Abs(l.residualPct-40) > 1e-9 {
		t.Errorf("residual %.3f%%, want 40%%", l.residualPct)
	}
	if l.selfPerRoot["a"] != 25 || l.selfPerRoot["d"] != 30 {
		t.Errorf("per-root self times %v", l.selfPerRoot)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.95, 4.8}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metric
// lists the command prints in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, the command %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
