// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload with inputs generated from
// --seed, measures for about --seconds seconds, checks every answer against
// the golden per-sample simulator (or, for training, against a bitwise
// replay), and prints as its last stdout line one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same inputs run with spans around every layer call and the metrics are
// the per-layer ones. Build and run through run.sh from the repository
// root; see README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its checks.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	bin      string // hpnn-serve binary
	dir      string // scratch directory for this run's files

	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

// count records a checked phase: how many operations it attempted and how
// many failed (a wrong answer is a failure).
func (r *run) count(phase string, attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
	fmt.Printf("phase %-14s attempted %6d succeeded %6d failed %d\n", phase, attempted, attempted-failed, failed)
}

// problem records a failed check that is not a per-operation failure.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Printf("CHECK FAILED: %s\n", msg)
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// budget returns a share of --seconds as a duration.
func (r *run) budget(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json's order.
var endToEnd = []metricName{
	{"lat_p50_ms", "ms"}, {"lat_p50_ms_hi", "ms"}, {"lat_p90_ms_hi", "ms"},
	{"capacity_rps", "1/s"}, {"samples_per_s", "1/s"}, {"setup_s", "s"},
}

type metricName struct{ name, unit string }

var workloads = map[string]struct {
	plain, traced func(*run) error
}{
	"wire_cnn1":      {wireCNN1, wireCNN1Traced},
	"zoo_swap":       {zooSwap, zooSwapTraced},
	"batch_resnet18": {batchResNet18, batchResNet18Traced},
	"train_cnn1":     {trainCNN1, trainCNN1Traced},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run")
		seed     = flag.Uint64("seed", 1, "input-generation seed")
		seconds  = flag.Float64("seconds", 15, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin      = flag.String("serve-bin", "", "hpnn-serve binary built from the tree under test")
		dir      = flag.String("work-dir", "", "scratch directory for run files")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fail(fmt.Errorf("unknown workload %q (have %v)", *workload, names))
	}
	if *bin == "" || *dir == "" || *seconds <= 0 {
		fail(fmt.Errorf("-serve-bin, -work-dir and a positive --seconds are required"))
	}
	runtime.GOMAXPROCS(conns)
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		bin: *bin, metrics: make(map[string]metric),
	}
	var err error
	r.dir, err = os.MkdirTemp(*dir, "run-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(r.dir)
	fn := w.plain
	if r.traced {
		fn = w.traced
	}
	if err := fn(r); err != nil {
		os.RemoveAll(r.dir)
		fail(err)
	}
	want := endToEnd
	if r.traced {
		want = perLayer()
	}
	if len(r.metrics) != len(want) {
		r.problem("reported %d metrics, want %d", len(r.metrics), len(want))
	}
	for _, w := range want {
		m, ok := r.metrics[w.name]
		switch {
		case !ok:
			r.problem("metric %s missing", w.name)
			r.metrics[w.name] = metric{Value: -1, Unit: w.unit}
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			r.problem("metric %s is %v", w.name, m.Value)
			r.metrics[w.name] = metric{Value: -1, Unit: w.unit}
		}
	}
	out, err := json.Marshal(result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// writeFile writes a run file under the run's scratch directory.
func (r *run) writeFile(name string, data []byte) (string, error) {
	path := filepath.Join(r.dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
