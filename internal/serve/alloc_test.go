package serve

import (
	"context"
	"math"
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/lockscheme"
	"hpnn/internal/tpu"
)

// TestServeSteadyStateAllocs pins the per-request allocation count of a
// warmed shard. The execution engine is zero-allocation per sample (the
// sealed workspace panics otherwise) and the serving layer recycles
// requests through a pool into a fixed-capacity queue, so a warmed server
// must answer sequential requests without allocating. The small slack
// absorbs pool
// refills after an unlucky GC, not a regression: if this number creeps up,
// a buffer stopped being reused somewhere on the request path.
func TestServeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented runtime allocates on channel operations")
	}
	f := newFixture(t, core.CNN1, 16, 2, 180)
	s := f.server(t, Config{Shards: 1, MaxBatch: 1, QueueDepth: 16})
	defer s.Close()

	ctx := context.Background()
	x := f.sample(0)
	// Warm the request pool past any first-use growth.
	for i := 0; i < 32; i++ {
		if _, err := s.Predict(ctx, x); err != nil {
			t.Fatal(err)
		}
	}

	avg := testing.AllocsPerRun(200, func() {
		if _, err := s.Predict(ctx, x); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun counts process-wide mallocs, so the shard goroutine is
	// included — exactly what this regression test wants.
	const maxAllocs = 1.0
	if avg > maxAllocs {
		t.Fatalf("steady-state Predict averaged %.2f allocs/request, want <= %.1f", avg, maxAllocs)
	}
}

// TestServeWarmupSealsShards confirms every shard's workspace is sealed
// after New, before any MAC has run — New sizes each shard from the
// program and runs no warm-up inference: the zero-allocation contract is
// enforced by the arena itself, not just measured above.
func TestServeWarmupSealsShards(t *testing.T) {
	f := newFixture(t, core.CNN1, 16, 1, 190)
	s := f.server(t, Config{Shards: 3})
	defer s.Close()
	for i, sh := range s.shards {
		if !sh.acc.WorkspaceSealed() {
			t.Fatalf("shard %d workspace not sealed after New", i)
		}
		if st := sh.acc.Stats(); st != (tpu.Stats{}) {
			t.Fatalf("shard %d ran the datapath before serving: %+v", i, st)
		}
	}
	if got, err := s.Predict(context.Background(), f.sample(0)); err != nil || got != f.want[0] {
		t.Fatalf("first request: class %d (%v), golden %d", got, err, f.want[0])
	}
}

// TestServeProgramCountedOnce: the shards share one compiled program, so a
// server's footprint is the program once plus each shard's state, and a
// further shard adds only its state.
func TestServeProgramCountedOnce(t *testing.T) {
	f := newFixture(t, core.CNN1, 16, 1, 195)
	one := f.server(t, Config{Shards: 1})
	two := f.server(t, Config{Shards: 2})
	defer one.Close()
	defer two.Close()
	prog, state := one.prog.Bytes(), one.shards[0].acc.WorkspaceBytes()
	if prog == 0 || state == 0 {
		t.Fatalf("program %d B, shard state %d B", prog, state)
	}
	if one.WorkspaceBytes() != prog+state || two.WorkspaceBytes() != prog+2*state {
		t.Fatalf("1 shard %d B, 2 shards %d B; want %d and %d", one.WorkspaceBytes(), two.WorkspaceBytes(), prog+state, prog+2*state)
	}
}

// TestServeReleaseKeepsPublishedModel: releasing a drained server wipes
// every shard's state and the shared program — a weight-space scheme's
// unlocked clone included — and never writes the published model the
// program was compiled from.
func TestServeReleaseKeepsPublishedModel(t *testing.T) {
	for _, schemeName := range lockscheme.Names() {
		f := newSchemeFixture(t, schemeName, core.CNN1, 16, 4, 197)
		before := weightBits(f.model)
		s := f.server(t, Config{Shards: 2})
		if _, err := s.PredictBatch(context.Background(), f.x); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s.release()
		for i, sh := range s.shards {
			if b := sh.acc.WorkspaceBytes(); b != 0 {
				t.Fatalf("%s: shard %d holds %d B after release", schemeName, i, b)
			}
		}
		after := weightBits(f.model)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("%s: published weight word %d changed by release", schemeName, i)
			}
		}
	}
}

// weightBits snapshots every parameter of m as raw IEEE bits.
func weightBits(m *core.Model) []uint64 {
	var out []uint64
	for _, p := range m.Net.Params() {
		for _, v := range p.Value.Data {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}
