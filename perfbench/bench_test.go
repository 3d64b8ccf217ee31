package main

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lu"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99.9); got != 7 {
		t.Errorf("p99.9 of one sample = %g, want 7", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 0 && c.n-nearestRank(c.n, got) < minBeyondTail {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, got, c.n-nearestRank(c.n, got))
		}
	}
}

// A request that stalls the only client delays the ones due behind it;
// their latency must count from when they were due, not when they went
// out, and no due time may be dropped.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const n, rate = 8, 100.0 // one request due every 10 ms
	const stall = 80 * time.Millisecond
	samples := openLoop(context.Background(), n, rate, 1, func(c, i int) {}, func(c, i int) time.Time {
		if i == 0 {
			time.Sleep(stall)
		}
		return time.Now()
	})
	if len(samples) != n {
		t.Fatalf("%d samples, want %d", len(samples), n)
	}
	interval := time.Duration(float64(time.Second) / rate)
	for i, s := range samples {
		if s.sent.IsZero() {
			t.Fatalf("request %d never sent", i)
		}
		if i > 0 && s.due.Sub(samples[i-1].due) != interval {
			t.Errorf("request %d due %v after its predecessor, want %v", i, s.due.Sub(samples[i-1].due), interval)
		}
		// Requests due during the stall wait for it to end.
		if wait := stall - time.Duration(i)*interval; i > 0 && wait > 0 {
			if s.latency() < wait {
				t.Errorf("request %d: latency %v hides the %v it waited behind the stall", i, s.latency(), wait)
			}
			if s.lag() < wait-2*time.Millisecond {
				t.Errorf("request %d: lag %v, want about %v", i, s.lag(), wait)
			}
		}
	}
	if samples[0].latency() < stall {
		t.Errorf("stalled request latency %v < %v", samples[0].latency(), stall)
	}
}

func TestOpenLoopUsesAtMostClientsGoroutines(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	openLoop(context.Background(), 40, 2000, 2, func(c, i int) {
		if c < 0 || c >= 2 {
			t.Errorf("client index %d out of range", c)
		}
	}, func(c, i int) time.Time {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return time.Now()
	})
	if peak > 2 {
		t.Errorf("%d requests in flight at once, want at most 2", peak)
	}
}

func TestMetricNames(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := validateDefs(defs); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range []string{"", "_lead", "has space", "semi;colon", "slash/name", strings.Repeat("x", 65)} {
		if err := validateDefs([]metricDef{{bad, "ms"}}); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if err := validateDefs([]metricDef{{"a", "ms"}, {"a", "s"}}); err == nil {
		t.Error("repeated name accepted")
	}
	if err := validateDefs([]metricDef{{"a", "m s"}}); err == nil {
		t.Error("unit with a space accepted")
	}
	if _, err := buildResult([]metricDef{{"a", "ms"}}, map[string]float64{"a": 1, "b": 2}, 1, 0, true); err == nil {
		t.Error("undeclared metric accepted")
	}
	if _, err := buildResult([]metricDef{{"a", "ms"}, {"b", "ms"}}, map[string]float64{"a": 1}, 1, 0, true); err == nil {
		t.Error("missing metric accepted")
	}
}

// BENCHMARK.json at the repository root must declare the same workloads
// and metrics this program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestChecksCatchWrongAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := dominant(rng, 48)
	inv, err := lu.Invert(toMatrix(a))
	if err != nil {
		t.Fatal(err)
	}
	x := dense{inv.Rows, inv.Cols, inv.Data}
	if r := fullResidual(a, x); r > inverseTol {
		t.Fatalf("true inverse has full residual %g", r)
	}
	if r := sampledResidual(a, x, 5); r > inverseTol {
		t.Fatalf("true inverse has sampled residual %g", r)
	}
	bad := dense{x.rows, x.cols, append([]float64(nil), x.data...)}
	for i := range bad.data[:x.cols] { // corrupt the first row
		bad.data[i] *= 1.001
	}
	if r := fullResidual(a, bad); r <= inverseTol {
		t.Errorf("corrupted inverse passes the full check (%g)", r)
	}
	if r := sampledResidual(a, bad, 0); r <= inverseTol {
		t.Errorf("corrupted inverse passes the sampled check (%g)", r)
	}

	// Least squares: the normal-equations solution passes, a perturbed
	// one does not.
	m := uniform(rng, 64, 4)
	b := uniform(rng, 64, 1)
	ata, atb := dense{4, 4, make([]float64, 16)}, dense{4, 1, make([]float64, 4)}
	for i := 0; i < 64; i++ {
		for j := 0; j < 4; j++ {
			atb.data[j] += m.at(i, j) * b.data[i]
			for k := 0; k < 4; k++ {
				ata.data[j*4+k] += m.at(i, j) * m.at(i, k)
			}
		}
	}
	atai, err := lu.Invert(toMatrix(ata))
	if err != nil {
		t.Fatal(err)
	}
	sol := dense{4, 1, make([]float64, 4)}
	for j := 0; j < 4; j++ {
		for k := 0; k < 4; k++ {
			sol.data[j] += atai.At(j, k) * atb.data[k]
		}
	}
	if r := lstsqResidual(m, b, sol); r > lstsqTol {
		t.Errorf("least-squares solution has residual %g", r)
	}
	sol.data[0] += 1e-3
	if r := lstsqResidual(m, b, sol); r <= lstsqTol {
		t.Errorf("perturbed solution passes (%g)", r)
	}
	if _, err := parseWire(appendWire(nil, m)[:20]); err == nil {
		t.Error("truncated answer decoded")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{name: "root", id: 1, start: 0, end: 100},
		{name: "a", id: 2, parent: 1, start: 10, end: 40},
		{name: "b", id: 3, parent: 1, start: 30, end: 60}, // overlaps a
		{name: "c", id: 4, parent: 3, start: 35, end: 45},
	}}
	self := r.selfTimes()
	for name, want := range map[string]time.Duration{"root": 50, "a": 30, "b": 20, "c": 10} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}

// Every workload runs for one second, traced and untraced, and must
// report every metric with every answer checked.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take several seconds")
	}
	for name, w := range workloads {
		plain, err := w.run(runConfig{seed: 11, seconds: time.Second})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		setup, err := w.setup()
		if err != nil {
			t.Fatalf("%s set-up: %v", name, err)
		}
		plain.e2e["setup_s"] = setup.Seconds()
		if plain.attempted < 1 || plain.failed != 0 || plain.wrong != 0 {
			t.Fatalf("%s: attempted %d, failed %d, wrong %d: %v", name, plain.attempted, plain.failed, plain.wrong, plain.firstErr)
		}
		res, err := buildResult(endToEnd, plain.e2e, plain.attempted, plain.failed, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for m, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", name, m, v.Value)
			}
		}
		rec := newRecorder()
		traced, err := w.run(runConfig{seed: 11, seconds: time.Second, rec: rec})
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if _, err := buildResult(perLayer, traced.layerValues(plain, map[string]float64{}, rec), 1, 0, true); err != nil {
			t.Errorf("%s traced: %v", name, err)
		}
	}
}
