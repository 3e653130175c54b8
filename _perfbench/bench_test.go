package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hpnn/internal/keys"
	"hpnn/internal/rng"
	"hpnn/internal/serve"
	"hpnn/internal/tpu"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}, {0.125, 1.5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty input should give NaN")
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median of unsorted = %v, want 4", got)
	}
}

func TestLogHist(t *testing.T) {
	h := newLogHist(1, 2, 6) // buckets: <1, [1,2), [2,4), [4,8), [8,16), ≥16
	for _, c := range []struct {
		v    float64
		want int
	}{{0.5, 0}, {1, 1}, {1.99, 1}, {2, 2}, {7.9, 3}, {8, 4}, {16, 5}, {1e9, 5}} {
		if got := h.bucket(c.v); got != c.want {
			t.Errorf("bucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 100} {
		h.add(v)
	}
	if want := []uint64{1, 2, 1, 0, 0, 1}; !reflect.DeepEqual(h.counts, want) {
		t.Errorf("counts %v, want %v", h.counts, want)
	}
}

func TestScheduleReproducible(t *testing.T) {
	mix := []float64{0.5, 0.49, 0.01}
	a := openSchedule(42, 1000, 2*time.Second, 256, mix)
	b := openSchedule(42, 1000, 2*time.Second, 256, mix)
	if len(a) != len(b) {
		t.Fatalf("same seed, lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at arrival %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := openSchedule(43, 1000, 2*time.Second, 256, mix)
	same := len(c) == len(a)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds gave identical schedules")
	}
	// Poisson at 1000/s over 2 s: 2000 ± a few standard deviations (√2000 ≈ 45).
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals, want about 2000", n)
	}
	counts := make([]int, len(mix))
	for i, x := range a {
		if x.due < 0 || x.due >= 2*time.Second || (i > 0 && x.due < a[i-1].due) {
			t.Fatalf("arrival %d due %v out of order or range", i, x.due)
		}
		if x.sample < 0 || x.sample >= 256 {
			t.Fatalf("arrival %d sample %d out of range", i, x.sample)
		}
		counts[x.tenant]++
	}
	if counts[2] == 0 || counts[2] > len(a)/20 || counts[0] < len(a)/3 {
		t.Errorf("tenant mix %v does not follow %v", counts, mix)
	}
	if phaseSeed(1, 1) == phaseSeed(1, 2) || phaseSeed(1, 1) == phaseSeed(2, 1) {
		t.Error("phase seeds collide")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Req: 1, Parent: -1, Name: "request", Start: 0, End: 100},
		{Req: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{Req: 1, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a
		{Req: 1, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent
		{Req: 1, Parent: 3, Name: "d", Start: 95, End: 100}, // grandchild
		{Req: 2, Parent: -1, Name: "request", Start: 200, End: 210},
	}
	st := selfTimes(spans)
	req := st["request"]
	// Children cover [10,50) and [90,100) of [0,100): 50 ns; request 2 has none.
	if req.count != 2 || req.total != 110 || req.self != 50+10 {
		t.Errorf("request: count %d total %d self %d, want 2 110 60", req.count, req.total, req.self)
	}
	if c := st["c"]; c.total != 30 || c.self != 25 {
		t.Errorf("c: total %d self %d, want 30 25", c.total, c.self)
	}
	if a := st["a"]; a.self != 20 {
		t.Errorf("a: self %d, want 20", a.self)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestCapacitySearch(t *testing.T) {
	const knee = 1450.0
	capacity, trail := searchCapacity(capLo, capHi, capSteps, func(rate float64) bool { return rate <= knee })
	if len(trail) != capSteps {
		t.Fatalf("%d probes, want %d", len(trail), capSteps)
	}
	resolution := math.Pow(capHi/capLo, 1/math.Pow(2, capSteps))
	if capacity > knee || capacity < knee/resolution {
		t.Errorf("capacity %v, want within (%v, %v]", capacity, knee/resolution, knee)
	}
	for _, s := range trail {
		if s.pass != (s.rate <= knee) {
			t.Errorf("probe %v recorded pass=%v", s.rate, s.pass)
		}
	}
	// Nothing passes: the search reports the bracket floor.
	if c, _ := searchCapacity(capLo, capHi, 3, func(float64) bool { return false }); c != capLo {
		t.Errorf("all-fail capacity %v, want %v", c, capLo)
	}
}

func TestLeastDisturbed(t *testing.T) {
	subs := []summary{
		{p50: 1.3, lateP90: 0.1},
		{p50: 0.9, lateP90: 2.0}, // generator fell behind: excluded
		{p50: 1.1, lateP90: lateLimitMS},
		{p50: 1.6, lateP90: 0.05},
	}
	p50 := func(s summary) float64 { return s.p50 }
	if v, ok := leastDisturbed(subs, p50); !ok || v != 1.1 {
		t.Errorf("got %v %v, want 1.1 true", v, ok)
	}
	if _, ok := leastDisturbed(subs[1:2], p50); ok {
		t.Error("every sub-phase late, but a figure was reported")
	}
}

func TestBestChunk(t *testing.T) {
	// Four chunks of two steps (ms); the second is disturbed.
	steps := []float64{2, 2, 5, 6, 1, 3, 2, 4}
	lat, rate := bestChunk(steps, 4, 0.5)
	if lat != 2 || math.Abs(rate-500) > 1e-9 {
		t.Errorf("got lat %v rate %v, want 2 and 500 steps/s", lat, rate)
	}
}

// TestSaturatedChecksEveryAnswer pipelines requests at a real in-process
// handler and checks that every answer was judged and the rate is the
// answers over the time to the last one.
func TestSaturatedChecksEveryAnswer(t *testing.T) {
	f := checkerFixture(t, 8)
	tn := f.tenants[0]
	reg := serve.NewRegistry(tpu.DefaultConfig(), serve.RegistryConfig{})
	defer reg.Close()
	if err := reg.Register(tn.name, tn.blobs[0], tn.dev, tn.sched); err != nil {
		t.Fatal(err)
	}
	var seq atomic.Uint64
	srv, err := startInproc(reg, nil, &seq)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	arr := openSchedule(3, 1000, 10*time.Second, 8, []float64{1})
	p, err := runSaturated(srv.ln.Addr().String(), arr, f.fr, satDepth, 100*time.Millisecond, 5*time.Second, f.check)
	if err != nil {
		t.Fatal(err)
	}
	s := p.summarize()
	if s.n == 0 || s.ok != s.n || s.failed() != 0 {
		t.Fatalf("summary %v, want every request answered correctly", s)
	}
	if want := float64(s.ok) / p.dur.Seconds(); s.rate != want || p.dur < 100*time.Millisecond {
		t.Errorf("rate %v over %v, want %v over at least 100ms", s.rate, p.dur, want)
	}
}

// checkerFixture is a single-tenant serving fixture over n samples with
// its golden answers, as the wire_cnn1 workload builds it.
func checkerFixture(t *testing.T, n int) *servingFixture {
	t.Helper()
	x, _, err := inputs(5, n)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := newTenant("cnn1", "hpnn-xor", cnn1, 101, 201)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.computeOracle(x); err != nil {
		t.Fatal(err)
	}
	f := &servingFixture{tenants: []*tenant{tn}, x: x, cold: -1}
	if f.fr, err = frames(f.tenants, x, false); err != nil {
		t.Fatal(err)
	}
	return f
}

// serveChecked serves every sample of f twice, in order, through the
// in-process connection handler on a registry holding blob under dev as
// the fixture's tenant, and returns each request's outcome as the
// benchmark's checker judged it.
func serveChecked(t *testing.T, f *servingFixture, blob []byte, dev *keys.Device) ([]arrival, *phase) {
	t.Helper()
	tn := f.tenants[0]
	reg := serve.NewRegistry(tpu.DefaultConfig(), serve.RegistryConfig{})
	defer reg.Close()
	if err := reg.Register(tn.name, blob, dev, tn.sched); err != nil {
		t.Fatal(err)
	}
	var seq atomic.Uint64
	srv, err := startInproc(reg, nil, &seq)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	n := len(tn.oracle[0])
	arr := make([]arrival, 2*n)
	for i := range arr {
		arr[i] = arrival{due: time.Duration(i) * 200 * time.Microsecond, sample: i % n}
	}
	p, err := runOpen(srv.ln.Addr().String(), arr, f.fr, time.Duration(len(arr))*200*time.Microsecond, 5*time.Second, f.check)
	if err != nil {
		t.Fatal(err)
	}
	return arr, p
}

// wantWrong checks that exactly the requests whose sample is in bad were
// flagged wrong and every other one passed.
func wantWrong(t *testing.T, arr []arrival, p *phase, bad func(sample int) bool) {
	t.Helper()
	flagged := 0
	for i, a := range arr {
		want := outOK
		if bad(a.sample) {
			want = outWrong
			flagged++
		}
		if p.out[i] != want {
			t.Errorf("request %d (sample %d): outcome %d, want %d", i, a.sample, p.out[i], want)
		}
	}
	if s := p.summarize(); s.wrong != flagged || s.failed() != flagged || s.ok != len(arr)-flagged {
		t.Errorf("summary %v, want %d wrong of %d", s, flagged, len(arr))
	}
}

// TestOracleRejectsWrongAnswer serves real requests through the in-process
// connection handler and checks that the answer checker flags exactly the
// samples whose expected answer was corrupted.
func TestOracleRejectsWrongAnswer(t *testing.T) {
	f := checkerFixture(t, 8)
	tn := f.tenants[0]
	const bad = 3
	tn.oracle[0][bad] = (tn.oracle[0][bad] + 1) % 10
	arr, p := serveChecked(t, f, tn.blobs[0], tn.dev)
	wantWrong(t, arr, p, func(s int) bool { return s == bad })
}

// TestCheckerFlagsWrongKeyServer: a server that holds the tenant's model
// under another key answers; the checker must flag every sample on which
// that key changes the answer, and those must be a large share.
func TestCheckerFlagsWrongKeyServer(t *testing.T) {
	f := checkerFixture(t, 64)
	tn := f.tenants[0]
	wrong := keys.NewDevice("bench/wrong", keys.Generate(rng.New(wrongKeySeed)))
	arr, p := serveChecked(t, f, tn.blobs[0], wrong)
	wantWrong(t, arr, p, func(s int) bool { return tn.wrongKey[s] != tn.oracle[0][s] })
	if d := disagree(tn.oracle[0], tn.wrongKey); d < minDisagree {
		t.Errorf("wrong key changes only %.2f of answers", d)
	}
}

// TestCheckerFlagsMisroutedTenant: a server answers with another tenant's
// model and key under this tenant's name; the checker must flag every
// sample on which the two tenants' golden answers differ.
func TestCheckerFlagsMisroutedTenant(t *testing.T) {
	f := checkerFixture(t, 64)
	tn := f.tenants[0]
	other, err := newTenant("deeplock-cnn1", "deeplock", cnn1, 112, 212)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.computeOracle(f.x); err != nil {
		t.Fatal(err)
	}
	// The server's scheme follows the blob; the schedule is shared.
	arr, p := serveChecked(t, f, other.blobs[0], other.dev)
	wantWrong(t, arr, p, func(s int) bool { return other.oracle[0][s] != tn.oracle[0][s] })
	if d := disagree(tn.oracle[0], other.oracle[0]); d < minDisagree {
		t.Errorf("tenants differ on only %.2f of answers", d)
	}
}

// TestOracleSpread runs the answer-power check on the zoo_swap tenants over
// a serving pool and on a collapsed oracle, which it must reject.
func TestOracleSpread(t *testing.T) {
	x, _, err := inputs(7, poolSize)
	if err != nil {
		t.Fatal(err)
	}
	var ts []*tenant
	for i, s := range []string{"hpnn-xor", "deeplock", "pufshuffle"} {
		tn, err := newTenant(s, s, cnn1, 111+uint64(i), 211+uint64(i), 311+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := tn.computeOracle(x); err != nil {
			t.Fatal(err)
		}
		ts = append(ts, tn)
	}
	if err := checkOracle(ts); err != nil {
		t.Fatal(err)
	}
	collapsed := *ts[0]
	collapsed.oracle = [][]int{make([]int, poolSize)}
	if err := checkOracle([]*tenant{&collapsed}); err == nil {
		t.Error("an oracle answering one class passed the spread check")
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the repository's BENCHMARK.json
// and the names this program reports in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricName, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer(), spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
