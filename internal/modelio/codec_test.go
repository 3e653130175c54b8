package modelio

import (
	"bytes"
	"math"
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/lockscheme"
	"hpnn/internal/rng"
)

// modelWords snapshots every parameter and batch-norm statistic of m as
// raw IEEE bits.
func modelWords(m *core.Model) []uint64 {
	var out []uint64
	add := func(vs []float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	for _, p := range m.Net.Params() {
		add(p.Value.Data)
	}
	for _, s := range core.BatchNormStats(m) {
		add(s)
	}
	return out
}

// codecModel builds arch at 16×16 with every parameter and batch-norm
// statistic drawn, including values the decoder must carry bit for bit:
// negative zero, a subnormal and the extremes of the float range.
func codecModel(t *testing.T, arch core.Arch, seed uint64) *core.Model {
	t.Helper()
	cfg := core.Config{Arch: arch, InC: 1, InH: 16, InW: 16, Classes: 5, Seed: seed}
	if arch == core.ResNet18 || arch == core.CNN2 {
		cfg.WidthScale = 0.125
	}
	m := core.MustModel(cfg)
	r := rng.New(seed + 1)
	for _, p := range m.Net.Params() {
		p.Value.FillNorm(r, 0, 0.5)
	}
	for _, s := range core.BatchNormStats(m) {
		for i := range s {
			s[i] = r.Float64() + 0.1
		}
	}
	w := m.Net.Params()[0].Value.Data
	copy(w, []float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64})
	return m
}

// TestLoadSaveBitwiseEveryArchAndScheme: Load(Save(m)) reproduces every
// parameter and batch-norm statistic bit for bit, for every architecture
// under every scheme stamp, and re-saving the decoded model reproduces the
// blob byte for byte.
func TestLoadSaveBitwiseEveryArchAndScheme(t *testing.T) {
	for ai, arch := range []core.Arch{core.MLP, core.CNN1, core.CNN2, core.CNN3, core.ResNet18} {
		for si, scheme := range lockscheme.Names() {
			m := codecModel(t, arch, uint64(7000+10*ai+si))
			m.Scheme = scheme
			var blob bytes.Buffer
			if err := Save(&blob, m); err != nil {
				t.Fatalf("%s/%s: save: %v", arch, scheme, err)
			}
			back, err := Load(bytes.NewReader(blob.Bytes()))
			if err != nil {
				t.Fatalf("%s/%s: load: %v", arch, scheme, err)
			}
			if lockscheme.Canonical(back.Scheme) != scheme || back.Config != m.Config {
				t.Fatalf("%s/%s: header decoded as %q %+v", arch, scheme, back.Scheme, back.Config)
			}
			want, got := modelWords(m), modelWords(back)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d words decoded, want %d", arch, scheme, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: word %d decoded %x, saved %x", arch, scheme, i, got[i], want[i])
				}
			}
			var again bytes.Buffer
			if err := Save(&again, back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), blob.Bytes()) {
				t.Fatalf("%s/%s: re-saved blob differs", arch, scheme)
			}
		}
	}
}

// rejectsEveryPrefix requires decode to fail, without panicking, on every
// strict prefix of blob.
func rejectsEveryPrefix(t *testing.T, name string, blob []byte, decode func([]byte) error) {
	t.Helper()
	for cut := 0; cut < len(blob); cut++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s cut at %d of %d bytes: panic %v", name, cut, len(blob), p)
				}
			}()
			if err := decode(blob[:cut]); err == nil {
				t.Fatalf("%s cut at %d of %d bytes: accepted", name, cut, len(blob))
			}
		}()
	}
}

// TestDecodersRejectEveryTruncation cuts a CNN1 v1 blob, a deeplock v2
// blob and a checkpoint at every byte offset: each prefix must fail with
// an error, never a panic or a short model.
func TestDecodersRejectEveryTruncation(t *testing.T) {
	load := func(b []byte) error {
		_, err := Load(bytes.NewReader(b))
		return err
	}
	for _, scheme := range []string{"", "deeplock"} {
		m := codecModel(t, core.CNN1, 7100)
		m.Scheme = scheme
		var blob bytes.Buffer
		if err := Save(&blob, m); err != nil {
			t.Fatal(err)
		}
		rejectsEveryPrefix(t, "blob "+lockscheme.Canonical(scheme), blob.Bytes(), load)
	}

	var ckpt bytes.Buffer
	if err := SaveCheckpoint(&ckpt, lockedCheckpointModel(t), sampleState()); err != nil {
		t.Fatal(err)
	}
	rejectsEveryPrefix(t, "checkpoint", ckpt.Bytes(), func(b []byte) error {
		_, _, err := LoadCheckpoint(bytes.NewReader(b))
		return err
	})
}
